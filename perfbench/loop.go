package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paris-kv/paris/internal/check"
	"github.com/paris-kv/paris/internal/client"
	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/server"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
	"github.com/paris-kv/paris/internal/workload"
)

// Phases of a run. Sessions read the phase before each transaction; the
// untraced phase gives the end-to-end metrics, the traced one the per-layer
// metrics.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseTraced
	phaseStop
	numPhases
)

// version is a committed write, ordered as the store orders versions.
type version struct {
	ct    hlc.Timestamp
	tx    wire.TxID
	dc    topology.DCID
	value []byte
}

func (v version) less(o version) bool {
	return wire.Item{UT: v.ct, TxID: v.tx, SrcDC: v.dc}.Less(wire.Item{UT: o.ct, TxID: o.tx, SrcDC: o.dc})
}

// phaseStats is what one session counted in one phase.
type phaseStats struct {
	attempted, failed, readOnly, update, writeItems uint64
}

// commitSample is one update commit handed to the visibility observer.
type commitSample struct {
	ct     hlc.Timestamp
	at     time.Time
	phase  int32
	window int32                  // measured window; measured phase only
	parts  []topology.PartitionID // written partitions; traced phase only
}

// clock is the run's position: its phase and, in the measured phase, the
// window. The main goroutine moves it; sessions read it per transaction.
type clock struct {
	phase, window atomic.Int32
}

// session is one closed-loop client: it sends its next transaction only
// after the previous one returns.
type session struct {
	idx  int
	dc   topology.DCID
	cl   *client.Client
	gen  *workload.Generator
	topo *topology.Topology

	stats [numPhases]phaseStats
	// windows holds the transaction latencies in microseconds of each
	// measured window. float32 keeps the benchmark's own heap small beside
	// the deployment's, whose GC pacing it would otherwise shift.
	windows [][]float32
	// clientAt[p] holds the client's counters when the session entered
	// phase p.
	clientAt [numPhases]client.Stats
	// last holds the newest value this session committed for each key.
	last  map[string]version
	maxCT hlc.Timestamp

	rec     *recorder // spans of the traced phase; nil when untraced
	hist    check.History
	histCap int
	seq     uint64
}

func (s *session) run(ctx context.Context, clk *clock, commits chan<- commitSample, lost *atomic.Uint64) {
	cur := int32(-1)
	for {
		ph := clk.phase.Load()
		if ph != cur {
			st := s.cl.Stats()
			for k := cur + 1; k <= ph; k++ {
				s.clientAt[k] = st
			}
			cur = ph
		}
		if ph == phaseStop {
			return
		}
		s.runTx(ctx, ph, clk.window.Load(), commits, lost)
	}
}

func (s *session) runTx(ctx context.Context, ph, win int32, commits chan<- commitSample, lost *atomic.Uint64) {
	plan := s.gen.Next()
	var rec *recorder
	if ph == phaseTraced {
		rec = s.rec
	}
	s.seq++
	st := &s.stats[ph]
	st.attempted++
	trace := uint64(s.idx)<<48 | s.seq
	t0 := time.Now()
	root := rec.begin(trace, -1, spanTx)
	ct, err := s.exec(ctx, plan, rec, trace, root, ph == phaseTraced && s.hist.Len() < s.histCap)
	rec.end(root)
	lat := time.Since(t0)
	if err != nil {
		st.failed++
		return
	}
	if ph == phaseMeasure {
		for int(win) >= len(s.windows) {
			s.windows = append(s.windows, nil)
		}
		s.windows[win] = append(s.windows[win], float32(lat)/float32(time.Microsecond))
	}
	if ct == 0 {
		st.readOnly++
		return
	}
	st.update++
	st.writeItems += uint64(len(plan.Writes))
	if ph == phaseWarmup {
		return
	}
	c := commitSample{ct: ct, at: t0.Add(lat), phase: ph, window: win}
	if ph == phaseTraced {
		for _, kv := range plan.Writes {
			if p := s.topo.PartitionOf(kv.Key); !slices.Contains(c.parts, p) {
				c.parts = append(c.parts, p)
			}
		}
	}
	select {
	case commits <- c:
	default:
		lost.Add(1)
	}
}

// exec runs one plan as the paper's clients do: one parallel read round,
// the buffered writes, then commit. With record set it adds the transaction
// to the session's history the way internal/nemesis does.
func (s *session) exec(ctx context.Context, plan workload.TxPlan, rec *recorder, trace uint64, root int32, record bool) (hlc.Timestamp, error) {
	sp := rec.begin(trace, root, spanBegin)
	err := s.cl.Start(ctx)
	rec.end(sp)
	if err != nil {
		return 0, err
	}
	txID := s.cl.TxID()
	var obs check.Tx
	if record {
		obs = check.Tx{Session: s.idx, Seq: int(s.seq), Snapshot: s.cl.Snapshot(), ID: txID}
	}
	if len(plan.ReadKeys) > 0 {
		sp = rec.begin(trace, root, spanRead)
		_, err = s.cl.Read(ctx, plan.ReadKeys...)
		rec.end(sp)
		if err != nil {
			s.cl.Abandon()
			return 0, err
		}
		if record {
			for _, k := range plan.ReadKeys {
				item, found := s.cl.Observed(k)
				obs.Reads = append(obs.Reads, check.ReadObs{Key: k, Writer: item.TxID, UT: item.UT, Found: found})
			}
		}
	}
	if len(plan.Writes) > 0 {
		sp = rec.begin(trace, root, spanWrite)
		for _, kv := range plan.Writes {
			if err = s.cl.Write(kv.Key, kv.Value); err != nil {
				break
			}
		}
		rec.end(sp)
		if err != nil {
			s.cl.Abandon()
			return 0, err
		}
	}
	sp = rec.begin(trace, root, spanCommit)
	ct, err := s.cl.Commit(ctx)
	rec.end(sp)
	if err != nil {
		s.cl.Abandon()
		return 0, err
	}
	for _, kv := range plan.Writes {
		s.last[kv.Key] = version{ct: ct, tx: txID, dc: s.dc, value: kv.Value}
		if record {
			obs.Writes = append(obs.Writes, kv.Key)
		}
	}
	s.maxCT = max(s.maxCT, ct)
	if record {
		obs.CommitTS = ct
		if ct == 0 {
			obs.ID = 0 // read-only: the id is not meaningful in the history
		}
		s.hist.Add(obs)
	}
	return ct, nil
}

// pollEvery is the observer's polling period; a visibility sample is late
// by at most this much.
const pollEvery = 500 * time.Microsecond

// sampleEvery is how many polls pass between RSS and runtime samples.
const sampleEvery = 20

// observer is the single goroutine that polls the servers' UST atomics and
// turns commit samples into visibility latencies. In the traced phase it
// also splits visibility into replication and stabilization and samples the
// UST lag and runtime peaks.
type observer struct {
	srvs     []*server.Server
	replicas [][]*server.Server // by partition
	clk      *clock
	commits  chan commitSample
	done     chan struct{}

	// vis holds the measured phase's visibility latencies in milliseconds
	// and rssPeak its highest resident-set sample in bytes, by window.
	vis        [][]float32
	rssPeak    []float64
	replicated []time.Duration
	stabilized []time.Duration
	ustLagMs   []float64
	goroutines float64
	stackBytes float64
	err        error
}

// commitBuffer holds the commits of a few polls at the highest commit rate
// the workloads reach; a full buffer drops the sample and counts it lost.
const commitBuffer = 4096

func newObserver(srvs []*server.Server, topo *topology.Topology, clk *clock) *observer {
	o := &observer{srvs: srvs, clk: clk,
		replicas: make([][]*server.Server, topo.NumPartitions()),
		commits:  make(chan commitSample, commitBuffer), done: make(chan struct{})}
	for _, s := range srvs {
		p := s.ID().Partition()
		o.replicas[p] = append(o.replicas[p], s)
	}
	return o
}

func minUST(srvs []*server.Server) hlc.Timestamp {
	low := hlc.MaxTimestamp
	for _, s := range srvs {
		low = min(low, s.UST())
	}
	return low
}

type pendingCommit struct {
	commitSample
	replAt time.Time
}

// run polls until the commit channel is closed and every pending commit has
// become visible, or until ustTimeout passes after the close.
func (o *observer) run() {
	defer close(o.done)
	var pending []pendingCommit
	installed := make([]hlc.Timestamp, len(o.replicas))
	open := true
	var closedAt time.Time
	for tick := 0; open || len(pending) > 0; tick++ {
		time.Sleep(pollEvery)
	drain:
		for open {
			select {
			case c, ok := <-o.commits:
				if !ok {
					open, closedAt = false, time.Now()
					break drain
				}
				pending = append(pending, pendingCommit{commitSample: c})
			default:
				break drain
			}
		}
		ph := o.clk.phase.Load()
		now := time.Now()
		ust := minUST(o.srvs)
		traced := ph == phaseTraced
		if traced || slices.ContainsFunc(pending, func(p pendingCommit) bool { return p.phase == phaseTraced }) {
			for p, reps := range o.replicas {
				low := hlc.MaxTimestamp
				for _, s := range reps {
					low = min(low, s.InstalledLowerBound())
				}
				installed[p] = low
			}
		}
		kept := pending[:0]
		for _, c := range pending {
			if c.phase == phaseTraced && c.replAt.IsZero() && replicatedAll(installed, c.parts, c.ct) {
				c.replAt = now
			}
			if c.ct > ust {
				kept = append(kept, c)
				continue
			}
			if c.phase == phaseMeasure {
				for int(c.window) >= len(o.vis) {
					o.vis = append(o.vis, nil)
				}
				o.vis[c.window] = append(o.vis[c.window], float32(now.Sub(c.at))/float32(time.Millisecond))
			}
			if c.phase == phaseTraced {
				if c.replAt.IsZero() {
					c.replAt = now
				}
				o.replicated = append(o.replicated, c.replAt.Sub(c.at))
				o.stabilized = append(o.stabilized, now.Sub(c.replAt))
			}
		}
		pending = kept
		if !open && time.Since(closedAt) > ustTimeout {
			o.err = fmt.Errorf("%d commits not visible %v after the run (UST %v)", len(pending), ustTimeout, ust)
			return
		}
		if tick%sampleEvery != 0 {
			continue
		}
		if rss, err := rssBytes(); err == nil && ph == phaseMeasure {
			w := int(o.clk.window.Load())
			for w >= len(o.rssPeak) {
				o.rssPeak = append(o.rssPeak, 0)
			}
			o.rssPeak[w] = max(o.rssPeak[w], float64(rss))
		}
		if traced {
			o.ustLagMs = append(o.ustLagMs, float64(now.UnixMilli())-float64(ust.Physical()))
			rt := readRuntime()
			o.goroutines = max(o.goroutines, rt.num("/sched/goroutines:goroutines"))
			o.stackBytes = max(o.stackBytes, rt.num("/memory/classes/heap/stacks:bytes"))
		}
	}
}

// replicatedAll reports whether every replica of every written partition
// has installed ct: installed holds, per partition, the lowest
// InstalledLowerBound (version-vector minimum) over its replicas, which
// covers the entry of whichever replica committed the write.
func replicatedAll(installed []hlc.Timestamp, parts []topology.PartitionID, ct hlc.Timestamp) bool {
	for _, p := range parts {
		if installed[p] < ct {
			return false
		}
	}
	return true
}

// ustTimeout bounds every wait for the UST to cover a timestamp.
const ustTimeout = 30 * time.Second

func waitUST(srvs []*server.Server, ts hlc.Timestamp) error {
	deadline := time.Now().Add(ustTimeout)
	for minUST(srvs) < ts {
		if time.Now().After(deadline) {
			return fmt.Errorf("UST %v did not reach %v within %v", minUST(srvs), ts, ustTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// preloadBatch is the number of keys one preload transaction writes.
const preloadBatch = 250

// preload writes every key of the key space once, each partition from a
// session in the first DC that replicates it, so every preload transaction
// is local. It returns the highest commit timestamp.
func preload(ctx context.Context, d deployment, ks *workload.Keyspace, mix workload.Mix, seed int64) (hlc.Timestamp, error) {
	topo := d.topo()
	byDC := make(map[topology.DCID][]topology.PartitionID)
	for p := range topo.NumPartitions() {
		pid := topology.PartitionID(p)
		dc := topo.ReplicaDCs(pid)[0]
		byDC[dc] = append(byDC[dc], pid)
	}
	var (
		mu       sync.Mutex
		maxCT    hlc.Timestamp
		firstErr error
		wg       sync.WaitGroup
	)
	for dc, parts := range byDC {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ct, err := preloadDC(ctx, d, dc, parts, ks, mix, rand.New(rand.NewSource(seed<<8^int64(dc))))
			mu.Lock()
			defer mu.Unlock()
			maxCT = max(maxCT, ct)
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("preload from DC %d: %w", dc, err)
			}
		}()
	}
	wg.Wait()
	return maxCT, firstErr
}

func preloadDC(ctx context.Context, d deployment, dc topology.DCID, parts []topology.PartitionID, ks *workload.Keyspace, mix workload.Mix, rng *rand.Rand) (hlc.Timestamp, error) {
	cl, closeFn, err := d.newSession(dc)
	if err != nil {
		return 0, err
	}
	defer closeFn()
	var maxCT hlc.Timestamp
	n := ks.KeysPerPartition()
	for _, p := range parts {
		for lo := 0; lo < n; lo += preloadBatch {
			if err := cl.Start(ctx); err != nil {
				return maxCT, err
			}
			for r := lo; r < min(lo+preloadBatch, n); r++ {
				v := make([]byte, mix.ValueSize+rng.Intn(mix.ValueJitter+1))
				rng.Read(v)
				if err := cl.Write(ks.Key(p, uint64(r)), v); err != nil {
					cl.Abandon()
					return maxCT, err
				}
			}
			ct, err := cl.Commit(ctx)
			if err != nil {
				cl.Abandon()
				return maxCT, err
			}
			maxCT = max(maxCT, ct)
		}
	}
	return maxCT, nil
}

// readBackChunk is the number of keys one read-back transaction reads.
const readBackChunk = 256

// readBack reads every key in winners from a fresh session in every DC and
// counts the reads that do not return the winning value. The caller waits
// until the UST covers every winner first.
func readBack(ctx context.Context, d deployment, winners map[string]version) (checked, bad int, err error) {
	keys := make([]string, 0, len(winners))
	for k := range winners {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dcs := d.topo().AllDCs()
	counts := make([]int, len(dcs))
	errs := make([]error, len(dcs))
	var wg sync.WaitGroup
	for i, dc := range dcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[i], errs[i] = readBackDC(ctx, d, dc, keys, winners)
		}()
	}
	wg.Wait()
	for i := range dcs {
		if errs[i] != nil {
			return 0, 0, fmt.Errorf("read-back from DC %d: %w", dcs[i], errs[i])
		}
		bad += counts[i]
	}
	return len(keys) * len(dcs), bad, nil
}

func readBackDC(ctx context.Context, d deployment, dc topology.DCID, keys []string, winners map[string]version) (int, error) {
	cl, closeFn, err := d.newSession(dc)
	if err != nil {
		return 0, err
	}
	defer closeFn()
	bad := 0
	for chunk := range slices.Chunk(keys, readBackChunk) {
		if err := cl.Start(ctx); err != nil {
			return bad, err
		}
		vals, err := cl.Read(ctx, chunk...)
		if err != nil {
			cl.Abandon()
			return bad, err
		}
		if _, err := cl.Commit(ctx); err != nil {
			cl.Abandon()
			return bad, err
		}
		for _, k := range chunk {
			if v, ok := vals[k]; !ok || !bytes.Equal(v, winners[k].value) {
				bad++
			}
		}
	}
	return bad, nil
}
