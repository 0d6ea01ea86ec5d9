package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"strings"
	"testing"
)

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
		ok   bool
	}{
		{19, "", false},
		{20, "p50", true},
		{99, "p50", true},
		{100, "p90", true},
		{999, "p90", true},
		{1000, "p99", true},
		{1009, "p99", true},
		{10000, "p99.9", true},
		{200000, "p99.99", true},
		{1000000, "p99.999", true},
	} {
		q, ok := highestTail(c.n)
		if ok != c.ok || (ok && percentileName(q) != c.want) {
			t.Errorf("highestTail(%d) = %s, %v; want %s, %v", c.n, percentileName(q), ok, c.want, c.ok)
		}
		if ok {
			if beyond := c.n - rank(q, c.n) - 1; beyond < minBeyond {
				t.Errorf("n=%d: %s leaves %d samples beyond", c.n, c.want, beyond)
			}
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 0.1: 1, 0: 1} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v", got)
	}
}

func TestParseProcIO(t *testing.T) {
	in := "rchar: 3980\nwchar: 123456\nsyscr: 9\nsyscw: 42\nread_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n"
	got, err := parseProcIO(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got != (procIO{wchar: 123456, syscw: 42}) {
		t.Errorf("got %+v", got)
	}
	for _, bad := range []string{"rchar: 1\nwchar: 2\n", "wchar: x\nsyscw: 1\n", ""} {
		if _, err := parseProcIO(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProcIO(%q) accepted", bad)
		}
	}
}

func TestReadProcIO(t *testing.T) {
	a, err := readProcIO()
	if err != nil {
		t.Skip("no /proc/self/io:", err)
	}
	b, err := readProcIO()
	if err != nil {
		t.Fatal(err)
	}
	if b.wchar < a.wchar || b.syscw < a.syscw {
		t.Errorf("counters went backwards: %+v then %+v", a, b)
	}
}

func TestHistQuantile(t *testing.T) {
	before := &metrics.Float64Histogram{Counts: []uint64{5, 0, 0}, Buckets: []float64{0, 1, 2, math.Inf(1)}}
	after := &metrics.Float64Histogram{Counts: []uint64{5, 98, 2}, Buckets: before.Buckets}
	// 100 new samples: 98 in [1,2), 2 in [2,inf); the 99th lies in the last
	// bucket, read at its finite lower bound.
	if got := histQuantile(before, after, 0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := histQuantile(before, after, 0.99); got != 2 {
		t.Errorf("p99 = %v, want 2", got)
	}
	if got := histQuantile(after, after, 0.99); got != 0 {
		t.Errorf("empty difference = %v, want 0", got)
	}
}

func TestParseProcStat(t *testing.T) {
	in := "cpu  100 5 20 800 10 1 4 60 0 0\ncpu0 50 2 10 400 5 0 2 30 0 0\n"
	got, err := parseProcStat(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got != (hostTicks{steal: 60, total: 1000}) {
		t.Errorf("got %+v", got)
	}
	for _, bad := range []string{"cpu0 1 2 3 4 5 6 7 8\n", "cpu 1 2 3\n", "cpu 1 2 3 4 5 6 7 x\n", ""} {
		if _, err := parseProcStat(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProcStat(%q) accepted", bad)
		}
	}
}

func TestKeptWindows(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []bool
	}{
		// Quiet host: every window counts.
		{[]float64{0, 0.01, 0.02, 0}, []bool{true, true, true, true}},
		// Stolen windows drop out while enough clean ones remain.
		{[]float64{0.3, 0, 0.05, 0.01, 0}, []bool{false, true, false, true, true}},
		// Too few clean windows: the least-stolen three count.
		{[]float64{0.3, 0.1, 0.05, 0.2, 0}, []bool{false, true, true, false, true}},
		// Fewer windows than the minimum: all count.
		{[]float64{0.5, 0.4}, []bool{true, true}},
	} {
		if got := keptWindows(c.steal); !slices.Equal(got, c.want) {
			t.Errorf("keptWindows(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}
