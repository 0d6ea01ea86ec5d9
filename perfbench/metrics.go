package main

// metricDef declares one reported metric. BENCHMARK.json lists the metrics
// every workload emits, except those marked detail or memnetOnly. Metrics
// outside BENCHMARK.json appear only in the detail output.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	bound float64
	// layer is the module a per-layer metric measures; moves names the
	// end-to-end metric and workload a change to that layer should move.
	layer, moves string
	// memnetOnly marks a metric the TCP workload cannot report.
	memnetOnly bool
	detail     bool
}

// Bounds: on a shared 2-vCPU host the CPU-bound figures move 10-20% from run
// to run with the host's speed (a fixed compute loop's rate varies by ±20%
// over tens of seconds), so they get the widest bound; the timer-bound
// visibility median is steadier. Every transaction of both workloads writes,
// so there is no separate update or read-only latency.
var endToEnd = []metricDef{
	{name: "tx_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "tx_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "tx_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "visibility_p50_ms", unit: "ms", better: "lower", bound: 0.1},
	{name: "visibility_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_us_per_tx", unit: "us", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	// Failures are 0 on every workload and travel as the result's
	// attempted/failed counts.
	{name: "tx_failed_ratio", unit: "ratio", better: "lower", detail: true},
}

const (
	writeTCP = "write-heavy-tcp"
	geoPaper = "geo-paper"
)

var perLayer = []metricDef{
	{name: "client.begin_us.p50", unit: "us", better: "lower", layer: "internal/client", moves: "tx_p50_us on " + writeTCP},
	{name: "client.begin_us.p99", unit: "us", better: "lower", layer: "internal/client", moves: "tx_p99_us on " + writeTCP},
	{name: "client.read_us.p50", unit: "us", better: "lower", layer: "internal/client", moves: "tx_p50_us on " + writeTCP},
	{name: "client.read_us.p99", unit: "us", better: "lower", layer: "internal/client", moves: "tx_p99_us on " + geoPaper},
	{name: "client.commit_us.p50", unit: "us", better: "lower", layer: "internal/client", moves: "tx_p50_us on " + writeTCP},
	{name: "client.commit_us.p99", unit: "us", better: "lower", layer: "internal/client", moves: "tx_p99_us on " + writeTCP},
	{name: "client.keys_from_server_ratio", unit: "ratio", better: "lower", layer: "internal/client", moves: "tx_p50_us on " + writeTCP},
	{name: "client.cache_peak", unit: "count", better: "lower", layer: "internal/client", moves: "tx_p50_us on " + writeTCP},

	{name: "server.slices_per_tx", unit: "count", better: "lower", layer: "internal/server", moves: "tx_p50_us on " + geoPaper},
	{name: "server.read_failovers", unit: "count", better: "lower", layer: "internal/server", moves: "tx_p50_us on " + geoPaper},
	{name: "twopc.prepares_per_update", unit: "count", better: "lower", layer: "internal/server", moves: "tx_p50_us on " + writeTCP},
	{name: "twopc.batch_fill", unit: "count", better: "higher", layer: "internal/server", moves: "tx_p50_us on " + writeTCP},
	{name: "twopc.pump_wakeups_per_prepare", unit: "count", better: "lower", layer: "internal/server", moves: "tx_p50_us on " + writeTCP},
	{name: "twopc.aborted", unit: "count", better: "lower", layer: "internal/server", moves: "tx_failed_ratio"},

	{name: "repl.batches_per_round_per_dest", unit: "count", better: "lower", layer: "internal/server", moves: "cpu_us_per_tx on " + geoPaper},
	{name: "repl.items_per_batch", unit: "count", better: "higher", layer: "internal/server", moves: "cpu_us_per_tx on " + writeTCP},
	{name: "repl.sync_requested", unit: "count", better: "lower", layer: "internal/server", moves: "visibility_p99_ms on " + writeTCP},
	{name: "vis.replicated_ms.p50", unit: "ms", better: "lower", layer: "internal/server", moves: "visibility_p50_ms on " + geoPaper},
	{name: "vis.replicated_ms.p99", unit: "ms", better: "lower", layer: "internal/server", moves: "visibility_p99_ms on " + geoPaper},
	{name: "vis.stabilized_ms.p50", unit: "ms", better: "lower", layer: "internal/server", moves: "visibility_p50_ms on " + geoPaper},
	{name: "vis.stabilized_ms.p99", unit: "ms", better: "lower", layer: "internal/server", moves: "visibility_p99_ms on " + geoPaper},
	{name: "ust.lag_ms.p50", unit: "ms", better: "lower", layer: "internal/server", moves: "visibility_p50_ms on " + geoPaper},
	{name: "gossip.msgs_per_s", unit: "1/s", better: "lower", layer: "internal/server", moves: "cpu_us_per_tx on " + geoPaper},
	{name: "gossip.suppressed_ratio", unit: "ratio", better: "higher", layer: "internal/server", moves: "cpu_us_per_tx on " + geoPaper},
	{name: "gc.removed_per_applied_item", unit: "ratio", better: "higher", layer: "internal/server", moves: "peak_rss_mb on " + writeTCP},

	{name: "store.versions_per_key", unit: "count", better: "lower", layer: "internal/store", moves: "peak_rss_mb on " + writeTCP},
	{name: "store.keys", unit: "count", better: "lower", layer: "internal/store", moves: "peak_rss_mb on " + writeTCP},

	{name: "transport.msgs_per_tx", unit: "count", better: "lower", layer: "internal/transport", moves: "cpu_us_per_tx on every workload"},
	{name: "transport.msgs_per_tx.start", unit: "count", better: "lower", layer: "internal/transport", moves: "cpu_us_per_tx on every workload"},
	{name: "transport.msgs_per_tx.read", unit: "count", better: "lower", layer: "internal/transport", moves: "cpu_us_per_tx on every workload"},
	{name: "transport.msgs_per_tx.read_slice", unit: "count", better: "lower", layer: "internal/transport", moves: "cpu_us_per_tx on every workload"},
	{name: "transport.msgs_per_tx.prepare", unit: "count", better: "lower", layer: "internal/transport", moves: "cpu_us_per_tx on every workload"},
	{name: "transport.msgs_per_tx.cohort_commit", unit: "count", better: "lower", layer: "internal/transport", moves: "cpu_us_per_tx on every workload"},
	{name: "transport.msgs_per_tx.replicate_batch", unit: "count", better: "lower", layer: "internal/transport", moves: "cpu_us_per_tx on every workload"},
	{name: "transport.msgs_per_tx.gossip", unit: "count", better: "lower", layer: "internal/transport", moves: "cpu_us_per_tx on every workload"},
	{name: "transport.batch_fill", unit: "count", better: "higher", layer: "internal/transport", moves: "cpu_us_per_tx on every workload"},
	// TCP nodes keep no drop counter.
	{name: "transport.dropped", unit: "count", better: "lower", layer: "internal/transport", moves: "tx_failed_ratio", memnetOnly: true},

	{name: "wire.bytes_per_tx", unit: "B", better: "lower", layer: "internal/wire", moves: "cpu_us_per_tx and tx_per_s on " + writeTCP},
	{name: "wire.write_syscalls_per_tx", unit: "count", better: "lower", layer: "internal/wire", moves: "cpu_us_per_tx and tx_per_s on " + writeTCP},

	{name: "runtime.allocs_per_tx", unit: "count", better: "lower", layer: "runtime", moves: "cpu_us_per_tx on " + writeTCP},
	{name: "runtime.alloc_bytes_per_tx", unit: "B", better: "lower", layer: "runtime", moves: "cpu_us_per_tx on " + writeTCP},
	{name: "runtime.sched_latency_p99_us", unit: "us", better: "lower", layer: "runtime", moves: "tx_p99_us on " + writeTCP},
	{name: "runtime.goroutines_peak", unit: "count", better: "lower", layer: "runtime", moves: "tx_p99_us on " + writeTCP},
	{name: "runtime.mutex_wait_ms_per_s", unit: "ms/s", better: "lower", layer: "runtime", moves: "tx_per_s on " + writeTCP},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower", layer: "runtime", moves: "cpu_us_per_tx on every workload"},
	{name: "runtime.stack_bytes_peak", unit: "B", better: "lower", layer: "runtime", moves: "cpu_us_per_tx on every workload"},

	{name: "trace.overhead_pct", unit: "%", better: "lower", layer: "perfbench", moves: "none: traced tx_per_s against untraced tx_per_s"},
}

// emitted reports whether workload w reports metric m.
func (m metricDef) emitted(w string) bool { return !m.memnetOnly || w != writeTCP }

// inBenchmarkJSON reports whether BENCHMARK.json lists m.
func (m metricDef) inBenchmarkJSON() bool { return !m.memnetOnly && !m.detail }
