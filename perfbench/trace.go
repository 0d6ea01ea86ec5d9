package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"time"
)

// spanName identifies the call a span wraps: one of the benchmark's own calls
// into a module's public functions, or a benchmark stage around them.
type spanName uint8

const (
	spanTx       spanName = iota // one closed-loop transaction, Begin to Commit return
	spanBegin                    // client.Client.Start
	spanRead                     // client.Client.Read
	spanWrite                    // client.Client.Write
	spanCommit                   // client.Client.Commit
	spanSetup                    // cluster start, preload and UST wait
	spanStart                    // paris.NewCluster or the TCP fleet start
	spanPreload                  // writing the key space
	spanUSTWait                  // waiting until every server's UST covers a timestamp
	spanReadback                 // read-back of every session's last writes
	spanCheck                    // internal/check validation of the recorded history
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"tx", "client.Start", "client.Read", "client.Write", "client.Commit",
	"setup", "cluster.start", "preload", "ust.wait", "readback", "check",
}

func (n spanName) String() string { return spanNames[n] }

// span is one recorded interval. Spans of one request share trace; parent is
// the index of the causing span in the same recorder, -1 for a root.
type span struct {
	trace      uint64
	parent     int32
	name       spanName
	start, end int64 // nanoseconds since the recorder's base
}

// recorder keeps spans in memory for one goroutine; it is not safe for
// concurrent use. A nil recorder records nothing, so untraced runs take the
// same code path at the cost of a nil check.
type recorder struct {
	base  time.Time
	spans []span
}

func newRecorder(base time.Time) *recorder { return &recorder{base: base} }

func (r *recorder) begin(trace uint64, parent int32, name spanName) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{trace: trace, parent: parent, name: name,
		start: int64(time.Since(r.base))})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].end = int64(time.Since(r.base))
}

// merge appends other's spans, rebasing their parent indices.
func (r *recorder) merge(other *recorder) {
	off := int32(len(r.spans))
	for _, s := range other.spans {
		if s.parent >= 0 {
			s.parent += off
		}
		r.spans = append(r.spans, s)
	}
}

// selfTimes returns each span's duration minus the part of its interval that
// its children cover. Overlapping children count once; a child reaching
// outside its parent counts only inside it.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	type iv struct {
		parent     int32
		start, end int64
	}
	var kids []iv
	for i, s := range spans {
		self[i] = s.end - s.start
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if lo < hi {
			kids = append(kids, iv{s.parent, lo, hi})
		}
	}
	slices.SortFunc(kids, func(a, b iv) int {
		if c := cmp.Compare(a.parent, b.parent); c != 0 {
			return c
		}
		return cmp.Compare(a.start, b.start)
	})
	for i := 0; i < len(kids); {
		p := kids[i].parent
		curLo, curHi := kids[i].start, kids[i].end
		var covered int64
		for ; i < len(kids) && kids[i].parent == p; i++ {
			if kids[i].start > curHi {
				covered += curHi - curLo
				curLo, curHi = kids[i].start, kids[i].end
			} else if kids[i].end > curHi {
				curHi = kids[i].end
			}
		}
		self[p] -= covered + curHi - curLo
	}
	return self
}

// spanSummary aggregates one span name: count and duration/self-time
// percentiles in microseconds.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	DurP50  float64 `json:"dur_p50_us"`
	DurP99  float64 `json:"dur_p99_us"`
	SelfP50 float64 `json:"self_p50_us"`
	SelfP99 float64 `json:"self_p99_us"`
	SelfSum float64 `json:"self_total_ms"`
}

// durationsByName returns every span's duration in microseconds, sorted,
// grouped by name.
func durationsByName(spans []span) [numSpanNames]sample {
	var out [numSpanNames]sample
	for _, s := range spans {
		out[s.name] = append(out[s.name], float64(s.end-s.start)/1e3)
	}
	for i := range out {
		slices.Sort(out[i])
	}
	return out
}

func summarize(spans []span, self []int64) []spanSummary {
	durs := durationsByName(spans)
	var selfs [numSpanNames]sample
	for i, s := range spans {
		selfs[s.name] = append(selfs[s.name], float64(self[i])/1e3)
	}
	var out []spanSummary
	for n := spanName(0); n < numSpanNames; n++ {
		if len(durs[n]) == 0 {
			continue
		}
		slices.Sort(selfs[n])
		var sum float64
		for _, v := range selfs[n] {
			sum += v
		}
		out = append(out, spanSummary{Name: n.String(), Count: len(durs[n]),
			DurP50: quantile(durs[n], 0.5), DurP99: quantile(durs[n], 0.99),
			SelfP50: quantile(selfs[n], 0.5), SelfP99: quantile(selfs[n], 0.99),
			SelfSum: sum / 1e3})
	}
	return out
}

// writeSpans writes every span as one tab-separated line.
func writeSpans(path string, spans []span, self []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.trace, i, s.parent, s.name, s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
