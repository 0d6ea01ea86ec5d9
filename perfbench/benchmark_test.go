package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q does not match %v", m.name, metricName)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("%s: better = %q", m.name, m.better)
		}
	}
	for _, q := range tailLadder {
		for _, n := range []string{"tx_" + percentileName(q) + "_us", "visibility_" + percentileName(q) + "_ms"} {
			if !metricName.MatchString(n) {
				t.Errorf("tail metric name %q does not match", n)
			}
		}
	}
	for _, m := range perLayer {
		if m.layer == "" || m.moves == "" {
			t.Errorf("per-layer metric %s lacks its layer or the metric it should move", m.name)
		}
	}
}

// TestBenchmarkFileMatchesTables checks that BENCHMARK.json declares exactly
// the workloads and the metrics every workload emits.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := loadBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var specNames []string
	for _, s := range specs {
		specNames = append(specNames, s.name)
	}
	if !slices.Equal(names, specNames) {
		t.Errorf("BENCHMARK.json workloads %v, specs %v", names, specNames)
	}
	var want, got []string
	for _, m := range endToEnd {
		if m.inBenchmarkJSON() {
			want = append(want, m.name+" "+m.unit+" "+m.better+" "+jsonNum(m.bound))
		}
	}
	for _, m := range f.EndToEnd {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better+" "+jsonNum(m.Bound))
	}
	if !slices.Equal(got, want) {
		t.Errorf("end_to_end:\n got %v\nwant %v", got, want)
	}
	want, got = nil, nil
	for _, m := range perLayer {
		if m.inBenchmarkJSON() {
			want = append(want, m.name+" "+m.unit+" "+m.better)
		}
	}
	for _, m := range f.PerLayer {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	if !slices.Equal(got, want) {
		t.Errorf("per_layer:\n got %v\nwant %v", got, want)
	}
}

func jsonNum(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestWorkloadsEmitDeclaredMetrics runs every workload briefly, untraced and
// traced, and checks that each metric BENCHMARK.json declares is reported
// and that the read-back and history check pass.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := loadBenchmarkFile(t)
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			r, err := runWorkload(sp, options{seed: 7, seconds: 300 * time.Millisecond, trace: trace, outdir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", sp.name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d violations=%v",
					sp.name, trace, r.Correct, r.Attempted, r.Failed, r.Violations)
			}
			emitted := map[string]bool{}
			for _, m := range r.Metrics {
				emitted[m.Name] = true
			}
			declared := []string{}
			if trace {
				for _, m := range f.PerLayer {
					declared = append(declared, m.Name)
				}
			} else {
				for _, m := range f.EndToEnd {
					declared = append(declared, m.Name)
				}
			}
			for _, n := range declared {
				if !emitted[n] {
					t.Errorf("%s trace=%t does not emit %s", sp.name, trace, n)
				}
			}
		}
	}
}
