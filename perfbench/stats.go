package main

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailLadder is the set of percentiles a tail timing may be reported at.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// rank is the nearest-rank index of quantile q among n sorted samples. The
// epsilon keeps q·n that should be whole, such as 0.99·1000, from rounding
// up a rank.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return max(0, min(r, n-1))
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(q, len(sorted))]
}

// highestTail returns the highest percentile of tailLadder that leaves at
// least minBeyond of n samples above it; ok is false when even the median
// does not.
func highestTail(n int) (q float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if n-(rank(tailLadder[i], n)+1) >= minBeyond {
			return tailLadder[i], true
		}
	}
	return 0, false
}

// percentileName renders q as the suffix used in metric names: 0.99 → "p99",
// 0.999 → "p99.9".
func percentileName(q float64) string {
	return "p" + strconv.FormatFloat(math.Round(q*1e5)/1e3, 'f', -1, 64)
}

// sample is a set of timing observations in one unit.
type sample []float64

func durations(ds []time.Duration, unit time.Duration) sample {
	out := make(sample, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	slices.Sort(out)
	return out
}

// ratio divides a by b, reading 0 when nothing was counted in b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procIO is the part of /proc/self/io the benchmark reads: bytes passed to
// write-family syscalls and their count, sockets included.
type procIO struct {
	wchar, syscw uint64
}

func parseProcIO(r io.Reader) (procIO, error) {
	var out procIO
	seen := 0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		var dst *uint64
		switch name {
		case "wchar":
			dst = &out.wchar
		case "syscw":
			dst = &out.syscw
		default:
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return procIO{}, fmt.Errorf("parse %s: %w", name, err)
		}
		*dst = v
		seen++
	}
	if err := sc.Err(); err != nil {
		return procIO{}, err
	}
	if seen != 2 {
		return procIO{}, fmt.Errorf("io counters: found %d of wchar, syscw", seen)
	}
	return out, nil
}

func readProcIO() (procIO, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return procIO{}, err
	}
	defer f.Close()
	return parseProcIO(f)
}

// hostTicks is the machine's CPU accounting from the first line of
// /proc/stat: ticks the hypervisor stole and ticks in total.
type hostTicks struct {
	steal, total uint64
}

func parseProcStat(r io.Reader) (hostTicks, error) {
	line, err := bufio.NewReader(r).ReadString('\n')
	if err != nil && line == "" {
		return hostTicks{}, err
	}
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user.
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}, fmt.Errorf("proc stat: %q", line)
	}
	var t hostTicks
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return hostTicks{}, fmt.Errorf("proc stat: %w", err)
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t, nil
}

// readHostTicks reads /proc/stat; where it cannot, it reports no ticks, and
// every window then counts as unstolen.
func readHostTicks() hostTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	defer f.Close()
	t, _ := parseProcStat(f)
	return t
}

// maxSteal is the share of the machine's CPU time the hypervisor may steal
// in a window before the window is taken to measure the host rather than
// the program; minWindows is how many windows a median always covers.
const (
	maxSteal   = 0.02
	minWindows = 3
)

// keptWindows chooses the windows the end-to-end medians cover: those whose
// steal share is at most maxSteal, or, when fewer than minWindows are, the
// minWindows with the least steal.
func keptWindows(steal []float64) []bool {
	keep := make([]bool, len(steal))
	n := 0
	for i, s := range steal {
		if s <= maxSteal {
			keep[i] = true
			n++
		}
	}
	if n >= min(minWindows, len(steal)) {
		return keep
	}
	order := make([]int, len(steal))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(steal[a], steal[b]) })
	for _, i := range order[:min(minWindows, len(order))] {
		keep[i] = true
	}
	return keep
}

// rssBytes reads the resident set size from /proc/self/statm.
func rssBytes() (uint64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", b)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("statm: %w", err)
	}
	return pages * uint64(os.Getpagesize()), nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics read at phase boundaries.
var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
	"/sync/mutex/wait/total:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/stacks:bytes",
}

type runtimeSnap map[string]metrics.Value

func readRuntime() runtimeSnap {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	out := make(runtimeSnap, len(ss))
	for _, s := range ss {
		out[s.Name] = s.Value
	}
	return out
}

func (r runtimeSnap) num(name string) float64 {
	v := r[name]
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// histQuantile returns the q-quantile of the difference of two cumulative
// runtime histograms, reading each bucket at its upper bound, or at its lower
// bound when it is unbounded.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	diff := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		diff[i] = after.Counts[i]
		if before != nil && i < len(before.Counts) {
			diff[i] -= before.Counts[i]
		}
		total += diff[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range diff {
		seen += c
		if seen >= want {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return hi
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}
