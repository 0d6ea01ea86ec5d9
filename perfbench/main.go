// Command perfbench is the repository's benchmark: closed-loop PaRiS
// workloads measured end to end, with a separate traced run for the
// per-layer breakdown. BENCHMARK.json at the repository root describes the
// workloads and metrics; run.sh builds and runs it.
//
//	perfbench --workload write-heavy-tcp --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it give every
// metric with its sample count and the run's environment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// deadline ends a run that overruns, so a stalled cluster cannot hang the
// caller.
const deadline = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or \"all\"")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured seconds; a traced run gives half to each phase")
		trace   = flag.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
		outdir  = flag.String("outdir", ".bench_build/perfbench", "directory for result and span files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *outdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, outdir string) error {
	if seconds <= 0 || trace < 0 || trace > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	var todo []spec
	if name == "all" {
		todo = specs
	} else if sp, ok := specByName(name); ok {
		todo = []spec{sp}
	} else {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	time.AfterFunc(deadline*time.Duration(len(todo)), func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(2)
	})
	o := options{seed: seed, seconds: time.Duration(seconds * float64(time.Second)), trace: trace == 1, outdir: outdir}
	final := result{Correct: true, Metrics: map[string]value{}}
	for _, sp := range todo {
		r, err := runWorkload(sp, o)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		if err := writeReport(outdir, r); err != nil {
			return err
		}
		printDetail(r)
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		defs := endToEnd
		if o.trace {
			defs = perLayer
		}
		for _, m := range r.Metrics {
			for _, def := range defs {
				if def.name == m.Name && def.inBenchmarkJSON() {
					key := m.Name
					if len(todo) > 1 {
						key = sp.name + "." + key
					}
					final.Metrics[key] = value{Value: m.Value, Unit: m.Unit}
				}
			}
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printDetail(r *report) {
	fmt.Printf("# %s seed=%d trace=%t nproc=%v gomaxprocs=%v go=%v sessions=%v correct=%t\n",
		r.Workload, r.Seed, r.Trace, r.Env["nproc"], r.Env["gomaxprocs"], r.Env["go"], r.Env["sessions"], r.Correct)
	fmt.Printf("#   attempted=%d failed=%d readback checked=%d bad=%d", r.Attempted, r.Failed, r.ReadbackChecked, r.ReadbackBad)
	if r.Trace {
		fmt.Printf(" history=%d violations=%d", r.HistoryTxs, len(r.Violations))
	}
	fmt.Println()
	for _, v := range r.Violations {
		fmt.Println("#   violation:", v)
	}
	for _, m := range r.Metrics {
		fmt.Printf("%-40s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, s := range r.Spans {
		fmt.Printf("#   span %-14s n=%-8d dur p50=%.1fus p99=%.1fus self p50=%.1fus total self=%.1fms\n",
			s.Name, s.Count, s.DurP50, s.DurP99, s.SelfP50, s.SelfSum)
	}
}
