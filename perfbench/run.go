package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paris-kv/paris/internal/check"
	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/server"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
	"github.com/paris-kv/paris/internal/workload"
)

type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	outdir  string
}

const (
	// setupRounds is how many times an untraced run sets up; setup_s is the
	// median.
	setupRounds = 7
	// warmup outlasts the decision memory's retention (see preparedTTL), so
	// the measured phase starts from a steady heap.
	warmup = 5 * time.Second
	// historyCap bounds the transactions the traced run hands to
	// internal/check, whose causal-closure cost grows with the square of
	// the recorded writes.
	historyCap = 2000
)

// metric is one reported value; n is its sample count or the count it is
// taken per.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// report is one workload's result.
type report struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Trace     bool           `json:"trace"`
	Env       map[string]any `json:"env"`
	Correct   bool           `json:"correct"`
	Attempted uint64         `json:"attempted"`
	Failed    uint64         `json:"failed"`
	// ReadbackChecked counts the reads of the read-back, ReadbackBad those
	// that did not return the last committed value.
	ReadbackChecked int      `json:"readback_checked"`
	ReadbackBad     int      `json:"readback_bad"`
	Violations      []string `json:"check_violations,omitempty"`
	HistoryTxs      int      `json:"check_history_txs,omitempty"`
	Metrics         []metric `json:"metrics"`
	// PerWindow holds the per-window values behind each windowed median.
	PerWindow map[string][]float64 `json:"per_window"`
	Spans     []spanSummary        `json:"spans,omitempty"`
}

// snapshot holds every public counter the benchmark reads at a phase
// boundary.
type snapshot struct {
	at  time.Time
	io  procIO
	rt  runtimeSnap
	net netCounters
	srv map[string]float64
}

func takeSnapshot(d deployment) (snapshot, error) {
	s := snapshot{at: time.Now(), rt: readRuntime(), net: d.net(), srv: serverTotals(d.servers())}
	var err error
	s.io, err = readProcIO()
	return s, err
}

func serverTotals(srvs []*server.Server) map[string]float64 {
	t := make(map[string]float64)
	for _, s := range srvs {
		m := s.Metrics()
		t["slices"] += float64(m.SlicesServed)
		t["read_failovers"] += float64(m.ReadFailovers)
		t["prepares"] += float64(m.Prepares)
		t["prep_batches"] += float64(m.PrepareBatches)
		t["prep_batched"] += float64(m.PrepareBatchedReqs)
		t["pump_wakeups"] += float64(m.PrepPumpWakeups)
		t["aborted"] += float64(m.TxAborted + m.TxReaped + m.CommitsRejected)
		t["repl_batches"] += float64(m.ReplBatches)
		t["repl_items"] += float64(m.ReplItems)
		t["sync_requested"] += float64(m.ReplSyncRequested)
		t["gossip_sent"] += float64(m.GossipSent)
		t["gossip_suppressed"] += float64(m.GossipSuppressed)
		t["gc_removed"] += float64(m.GCRemoved)
	}
	return t
}

// setUp starts a deployment, preloads the key space and waits until the UST
// covers the preload, recording a span for each step. The first round builds
// *ks from the deployment's topology; later rounds reuse it.
func setUp(ctx context.Context, sp spec, seed int64, ks **workload.Keyspace, rec *recorder, round uint64) (deployment, time.Duration, error) {
	root := rec.begin(round, -1, spanSetup)
	defer rec.end(root)
	t0 := time.Now()
	s := rec.begin(round, root, spanStart)
	d, err := sp.start()
	rec.end(s)
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(t0)
	if *ks == nil {
		*ks = workload.NewKeyspace(d.topo(), keysPerPartition)
	}
	t1 := time.Now()
	s = rec.begin(round, root, spanPreload)
	ct, err := preload(ctx, d, *ks, sp.mix, seed)
	rec.end(s)
	if err == nil {
		s = rec.begin(round, root, spanUSTWait)
		err = waitUST(d.servers(), ct)
		rec.end(s)
	}
	if err != nil {
		d.close()
		return nil, 0, err
	}
	return d, took + time.Since(t1), nil
}

func runWorkload(sp spec, o options) (*report, error) {
	ctx := context.Background()
	base := time.Now()
	var mainRec *recorder
	rounds := setupRounds
	if o.trace {
		mainRec, rounds = newRecorder(base), 1
	}
	var (
		ks     *workload.Keyspace
		setups []float64
		d      deployment
	)
	for i := range rounds {
		dep, took, err := setUp(ctx, sp, o.seed, &ks, mainRec, uint64(i))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, took.Seconds())
		if i < rounds-1 {
			dep.close()
		} else {
			d = dep
		}
	}
	defer d.close()
	// Return the torn-down rounds' memory so peak_rss_mb measures the
	// running deployment.
	debug.FreeOSMemory()

	topo := d.topo()
	sessions := make([]*session, runtime.NumCPU())
	for i := range sessions {
		dc := topology.DCID(i % topo.NumDCs())
		cl, closeFn, err := d.newSession(dc)
		if err != nil {
			return nil, err
		}
		defer closeFn()
		s := &session{idx: i, dc: dc, cl: cl, topo: topo,
			gen:  workload.NewGenerator(sp.mix, topo, ks, dc, o.seed*1_000_003+int64(i)*7919),
			last: make(map[string]version), histCap: historyCap / len(sessions)}
		if o.trace {
			s.rec = newRecorder(base)
		}
		sessions[i] = s
	}

	var clk clock
	var lost atomic.Uint64
	obs := newObserver(d.servers(), topo, &clk)
	go obs.run()
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run(ctx, &clk, obs.commits, &lost)
		}()
	}

	// A traced run splits its seconds between the untraced and the traced
	// phase; the traced phase's counters are read at its boundaries.
	phase := o.seconds
	if o.trace {
		phase /= 2
	}
	var tracedFrom, tracedTo snapshot
	var snapErr error
	time.Sleep(warmup)
	clk.phase.Store(phaseMeasure)
	marks := measureWindows(phase, &clk.window)
	if o.trace {
		clk.phase.Store(phaseTraced)
		tracedFrom, snapErr = takeSnapshot(d)
		time.Sleep(phase)
	}
	clk.phase.Store(phaseStop)
	if o.trace && snapErr == nil {
		tracedTo, snapErr = takeSnapshot(d)
	}
	wg.Wait()
	close(obs.commits)
	<-obs.done
	for _, err := range []error{snapErr, obs.err} {
		if err != nil {
			return nil, err
		}
	}

	r := &report{Workload: sp.name, Seed: o.seed, Trace: o.trace, Env: environment(sp, o, len(sessions))}
	r.Env["visibility_samples_lost"] = lost.Load()

	// Read-back: once the UST covers every session's last commit, every DC
	// must read each session's last value for the keys it was last to write.
	winners := make(map[string]version)
	var target hlc.Timestamp
	for _, s := range sessions {
		target = max(target, s.maxCT)
		for k, v := range s.last {
			if w, ok := winners[k]; !ok || w.less(v) {
				winners[k] = v
			}
		}
	}
	rb := mainRec.begin(0, -1, spanReadback)
	if err := waitUST(d.servers(), target); err != nil {
		return nil, fmt.Errorf("read-back: %w", err)
	}
	checked, bad, err := readBack(ctx, d, winners)
	mainRec.end(rb)
	if err != nil {
		return nil, err
	}
	r.ReadbackChecked, r.ReadbackBad = checked, bad
	r.Correct = bad == 0

	m := map[string]metric{}
	put := func(name string, v float64, n int) { m[name] = metric{Name: name, Value: v, N: n} }
	ms := merge(sessions, phaseMeasure)
	r.Attempted, r.Failed = ms.attempted, ms.failed
	r.PerWindow = endToEndMetrics(put, sessions, ms, marks, obs, setups)
	r.Env["windows"] = len(marks) - 1
	kept := 0
	for _, k := range keptWindows(r.PerWindow["steal_share"]) {
		if k {
			kept++
		}
	}
	r.Env["windows_kept"] = kept

	if o.trace {
		ts := merge(sessions, phaseTraced)
		r.Attempted += ts.attempted
		r.Failed += ts.failed
		var hist check.History
		for _, s := range sessions {
			hist.Merge(&s.hist)
			mainRec.merge(s.rec)
		}
		c := mainRec.begin(0, -1, spanCheck)
		for _, v := range hist.Check() {
			r.Violations = append(r.Violations, v.String())
		}
		mainRec.end(c)
		r.HistoryTxs = hist.Len()
		r.Correct = r.Correct && len(r.Violations) == 0

		committed := ts.readOnly + ts.update
		traced := float64(committed) / tracedTo.at.Sub(tracedFrom.at).Seconds()
		put("trace.overhead_pct", ratio(m["tx_per_s"].Value-traced, m["tx_per_s"].Value)*100, int(committed))
		self := selfTimes(mainRec.spans)
		r.Spans = summarize(mainRec.spans, self)
		if err := writeSpans(filepath.Join(o.outdir, "spans-"+sp.name+".tsv"), mainRec.spans, self); err != nil {
			return nil, err
		}
		perLayerMetrics(put, d, sessions, ts, tracedFrom, tracedTo, obs, mainRec.spans)
	}

	// Declared metrics first, in table order, then the extra tail
	// percentiles by name.
	defs := endToEnd
	if o.trace {
		defs = append(slices.Clone(endToEnd), perLayer...)
	}
	for _, def := range defs {
		if !def.emitted(sp.name) {
			continue
		}
		v, ok := m[def.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", def.name)
		}
		v.Unit = def.unit
		r.Metrics = append(r.Metrics, v)
		delete(m, def.name)
	}
	// The rest are the pooled tail percentiles, whose names end in their
	// unit.
	for _, name := range slices.Sorted(maps.Keys(m)) {
		v := m[name]
		v.Unit = name[strings.LastIndex(name, "_")+1:]
		r.Metrics = append(r.Metrics, v)
	}
	return r, nil
}

func environment(sp spec, o options, sessions int) map[string]any {
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"seed": o.seed, "seconds": o.seconds.Seconds(), "sessions": sessions,
		"mix": fmt.Sprintf("%+v", sp.mix), "keys_per_partition": keysPerPartition,
		"cadence_ms": float64(cadence) / 1e6,
	}
}

// merge returns one phase's figures over every session.
func merge(sessions []*session, ph int32) phaseStats {
	var out phaseStats
	for _, s := range sessions {
		st := s.stats[ph]
		out.attempted += st.attempted
		out.failed += st.failed
		out.readOnly += st.readOnly
		out.update += st.update
		out.writeItems += st.writeItems
	}
	return out
}

// windowTarget is the length of the windows the measured phase is split
// into. Each end-to-end figure is the median of its per-window values, so a
// disturbance from outside the benchmark moves only the windows it hits.
const windowTarget = 2 * time.Second

// mark is a window boundary.
type mark struct {
	at   time.Time
	cpu  time.Duration
	host hostTicks
}

// measureWindows sleeps for d, moving window on at each window boundary
// and marking the boundaries.
func measureWindows(d time.Duration, window *atomic.Int32) []mark {
	k := max(1, int(math.Round(float64(d)/float64(windowTarget))))
	start := time.Now()
	marks := []mark{{start, cpuTime(), readHostTicks()}}
	for i := 1; i <= k; i++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(i) / time.Duration(k))))
		window.Store(int32(i))
		marks = append(marks, mark{time.Now(), cpuTime(), readHostTicks()})
	}
	return marks
}

func median(vs []float64) float64 {
	s := slices.Sorted(slices.Values(vs))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sorted returns the float32 values as a sorted sample.
func sorted(vs []float32) sample {
	out := make(sample, len(vs))
	for i, v := range vs {
		out[i] = float64(v)
	}
	slices.Sort(out)
	return out
}

// endToEndMetrics reports the measured phase. Each figure is the median over
// the windows keptWindows chooses; the pooled tail percentiles cover the same
// windows and the failure share the whole phase. It returns every window's
// values, with each window's steal share.
func endToEndMetrics(put func(string, float64, int), sessions []*session, ms phaseStats, marks []mark, obs *observer, setups []float64) map[string][]float64 {
	steal := make([]float64, len(marks)-1)
	for w := range steal {
		a, b := marks[w].host, marks[w+1].host
		steal[w] = ratio(float64(b.steal-a.steal), float64(b.total-a.total))
	}
	keep := keptWindows(steal)
	per := map[string][]float64{"steal_share": steal}
	kept := map[string][]float64{}
	var allTx, allVis []float32
	var nWin int
	for w := range steal {
		add := func(name string, v float64) {
			per[name] = append(per[name], v)
			if keep[w] {
				kept[name] = append(kept[name], v)
			}
		}
		var lat []float32
		for _, s := range sessions {
			if w < len(s.windows) {
				lat = append(lat, s.windows[w]...)
			}
		}
		var vis []float32
		if w < len(obs.vis) {
			vis = obs.vis[w]
		}
		if keep[w] {
			allTx = append(allTx, lat...)
			allVis = append(allVis, vis...)
			nWin++
		}
		tx := sorted(lat)
		add("tx_per_s", float64(len(tx))/marks[w+1].at.Sub(marks[w].at).Seconds())
		add("tx_p50_us", quantile(tx, 0.5))
		add("tx_p99_us", quantile(tx, 0.99))
		v := sorted(vis)
		add("visibility_p50_ms", quantile(v, 0.5))
		add("visibility_p99_ms", quantile(v, 0.99))
		cpu := float64(marks[w+1].cpu-marks[w].cpu) / float64(time.Microsecond)
		add("cpu_us_per_tx", ratio(cpu, float64(len(tx))))
		if w < len(obs.rssPeak) {
			add("peak_rss_mb", obs.rssPeak[w]/(1<<20))
		}
	}
	tx, vis := sorted(allTx), sorted(allVis)
	counts := map[string]int{"peak_rss_mb": nWin,
		"visibility_p50_ms": len(vis), "visibility_p99_ms": len(vis)}
	for name, vs := range kept {
		n, ok := counts[name]
		if !ok {
			n = len(tx)
		}
		put(name, median(vs), n)
	}
	if q, ok := highestTail(len(tx)); ok && q > 0.99 {
		put("tx_"+percentileName(q)+"_us", quantile(tx, q), len(tx))
	}
	if q, ok := highestTail(len(vis)); ok && q > 0.99 {
		put("visibility_"+percentileName(q)+"_ms", quantile(vis, q), len(vis))
	}
	put("tx_failed_ratio", ratio(float64(ms.failed), float64(ms.attempted)), int(ms.attempted))
	if len(setups) > 0 {
		put("setup_s", median(setups), len(setups))
		per["setup_s"] = setups
	}
	return per
}

func perLayerMetrics(put func(string, float64, int), d deployment, sessions []*session, ts phaseStats, from, to snapshot, obs *observer, spans []span) {
	// Spans of the traced phase only: setup and read-back spans carry
	// other names.
	durs := durationsByName(spans)
	for _, c := range []struct {
		name string
		span spanName
	}{{"client.begin_us", spanBegin}, {"client.read_us", spanRead}, {"client.commit_us", spanCommit}} {
		if s := durs[c.span]; len(s) > 0 {
			put(c.name+".p50", quantile(s, 0.5), len(s))
			put(c.name+".p99", quantile(s, 0.99), len(s))
		}
	}
	var keysRead, fromSrv, cachePeak float64
	for _, s := range sessions {
		a, b := s.clientAt[phaseTraced], s.clientAt[phaseStop]
		keysRead += float64(b.KeysRead - a.KeysRead)
		fromSrv += float64(b.KeysFromSrvr - a.KeysFromSrvr)
		cachePeak = max(cachePeak, float64(b.CachePeak))
	}
	put("client.keys_from_server_ratio", ratio(fromSrv, keysRead), int(keysRead))
	put("client.cache_peak", cachePeak, len(sessions))

	committed := int(ts.readOnly + ts.update)
	n := float64(committed)
	updates := float64(ts.update)
	elapsed := to.at.Sub(from.at).Seconds()
	srv := func(k string) float64 { return to.srv[k] - from.srv[k] }
	put("server.slices_per_tx", ratio(srv("slices"), n), committed)
	put("server.read_failovers", srv("read_failovers"), 1)
	put("twopc.prepares_per_update", ratio(srv("prepares"), updates), int(ts.update))
	put("twopc.batch_fill", ratio(srv("prep_batched"), srv("prep_batches")), int(srv("prep_batches")))
	put("twopc.pump_wakeups_per_prepare", ratio(srv("pump_wakeups"), srv("prepares")), int(srv("prepares")))
	put("twopc.aborted", srv("aborted"), 1)

	topo := d.topo()
	rf := float64(topo.ReplicationFactor())
	pairs := float64(len(d.servers())) * (rf - 1)
	rounds := elapsed / cadence.Seconds()
	put("repl.batches_per_round_per_dest", ratio(srv("repl_batches"), rounds*pairs), int(rounds*pairs))
	put("repl.items_per_batch", ratio(srv("repl_items"), srv("repl_batches")), int(srv("repl_batches")))
	put("repl.sync_requested", srv("sync_requested"), 1)
	repl := durations(obs.replicated, time.Millisecond)
	stab := durations(obs.stabilized, time.Millisecond)
	put("vis.replicated_ms.p50", quantile(repl, 0.5), len(repl))
	put("vis.replicated_ms.p99", quantile(repl, 0.99), len(repl))
	put("vis.stabilized_ms.p50", quantile(stab, 0.5), len(stab))
	put("vis.stabilized_ms.p99", quantile(stab, 0.99), len(stab))
	lag := slices.Sorted(slices.Values(obs.ustLagMs))
	put("ust.lag_ms.p50", quantile(lag, 0.5), len(lag))
	sent, supp := srv("gossip_sent"), srv("gossip_suppressed")
	put("gossip.msgs_per_s", sent/elapsed, int(sent))
	put("gossip.suppressed_ratio", ratio(supp, sent+supp), int(sent+supp))
	applied := float64(ts.writeItems) * rf
	put("gc.removed_per_applied_item", ratio(srv("gc_removed"), applied), int(applied))

	var versions, keys float64
	for _, s := range d.servers() {
		versions += float64(s.Store().Versions())
		keys += float64(s.Store().Keys())
	}
	put("store.versions_per_key", ratio(versions, keys), int(keys))
	put("store.keys", keys, len(d.servers()))

	kind := func(ks ...wire.Kind) float64 {
		var t float64
		for _, k := range ks {
			t += float64(to.net.byKind[k] - from.net.byKind[k])
		}
		return ratio(t, n)
	}
	put("transport.msgs_per_tx", ratio(float64(to.net.sent-from.net.sent), n), committed)
	put("transport.msgs_per_tx.start", kind(wire.KindStartTxReq), committed)
	put("transport.msgs_per_tx.read", kind(wire.KindReadReq), committed)
	put("transport.msgs_per_tx.read_slice", kind(wire.KindReadSliceReq), committed)
	put("transport.msgs_per_tx.prepare", kind(wire.KindPrepareReq, wire.KindPrepareBatch), committed)
	put("transport.msgs_per_tx.cohort_commit", kind(wire.KindCohortCommit), committed)
	put("transport.msgs_per_tx.replicate_batch", kind(wire.KindReplicateBatch), committed)
	put("transport.msgs_per_tx.gossip", kind(wire.KindGSTUp, wire.KindGSTRoot, wire.KindUSTDown), committed)
	batches := float64(to.net.batches - from.net.batches)
	put("transport.batch_fill", ratio(float64(to.net.batchedEnvs-from.net.batchedEnvs), batches), int(batches))
	if to.net.hasDropped {
		put("transport.dropped", float64(to.net.dropped-from.net.dropped), 1)
	}
	put("wire.bytes_per_tx", ratio(float64(to.io.wchar-from.io.wchar), n), committed)
	put("wire.write_syscalls_per_tx", ratio(float64(to.io.syscw-from.io.syscw), n), committed)

	rt := func(name string) float64 { return to.rt.num(name) - from.rt.num(name) }
	put("runtime.allocs_per_tx", ratio(rt("/gc/heap/allocs:objects"), n), committed)
	put("runtime.alloc_bytes_per_tx", ratio(rt("/gc/heap/allocs:bytes"), n), committed)
	var before *metrics.Float64Histogram
	if v := from.rt["/sched/latencies:seconds"]; v.Kind() == metrics.KindFloat64Histogram {
		before = v.Float64Histogram()
	}
	put("runtime.sched_latency_p99_us", histQuantile(before, to.rt["/sched/latencies:seconds"].Float64Histogram(), 0.99)*1e6, 1)
	put("runtime.goroutines_peak", obs.goroutines, 1)
	put("runtime.mutex_wait_ms_per_s", rt("/sync/mutex/wait/total:seconds")*1e3/elapsed, 1)
	put("runtime.gc_cpu_share", ratio(rt("/cpu/classes/gc/total:cpu-seconds"), rt("/cpu/classes/total:cpu-seconds")), 1)
	put("runtime.stack_bytes_peak", obs.stackBytes, 1)
}

func writeReport(dir string, r *report) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%t.json", r.Workload, r.Seed, r.Trace)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
