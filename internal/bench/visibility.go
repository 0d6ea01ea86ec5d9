package bench

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/paris-kv/paris"
	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// The visibility experiment measures what the stabilization-plane overhaul
// (delta/piggybacked gossip, adaptive ΔG/ΔU) buys and what it costs:
//
//   - commit→universally-stable latency (the window in which a committed
//     write exists but no UST snapshot exposes it) under load, for the
//     adaptive delta plane, the fixed-cadence full-push baseline
//     (GossipStatic), and a loopback-TCP deployment;
//   - dedicated stabilization traffic (GSTUp/GSTRoot/USTDown envelopes) on
//     an idle cluster, where the adaptive plane's suppression and backoff
//     should collapse the rate, and under load, where it must not;
//   - the encoded size of a busy replication round;
//   - the largest single ReplSyncResp frame served during a flow-controlled
//     catch-up, against the configured chunk budget;
//   - memnet closed-loop scaling (1 thread vs SaturationThreads per DC).

// VisSummary is the percentile view of one arm's visibility samples.
type VisSummary struct {
	Samples       int
	P50, P95, P99 time.Duration
}

func summarizeVis(samples []time.Duration) VisSummary {
	if len(samples) == 0 {
		return VisSummary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(samples)-1))
		return samples[i]
	}
	return VisSummary{Samples: len(samples), P50: at(0.50), P95: at(0.95), P99: at(0.99)}
}

// VisibilityComparison is the outcome of the visibility experiment.
type VisibilityComparison struct {
	// Delta/Static are the loaded memnet arms (adaptive delta gossip vs the
	// fixed-cadence full-push baseline); TCP is the loopback-TCP arm.
	Delta, Static, TCP Result

	VisDelta, VisStatic, VisTCP VisSummary

	// Dedicated stabilization envelopes per second, summed over the cluster.
	LoadedGossipDelta, LoadedGossipStatic float64
	IdleGossipDelta, IdleGossipStatic     float64
	// IdleReduction is static ÷ delta on the idle cluster — the headline.
	IdleReduction float64

	// CodecBytes is the encoded size of a hot-mix replication round (short
	// keys, 8-byte counter values — the shape where framing dominates);
	// CodecBulkBytes that of a bulk-value round (28-byte JSON documents).
	CodecBytes, CodecBulkBytes int

	// RepairChunkMax is the largest single ReplSyncResp frame served during
	// the flow-controlled catch-up probe; RepairChunkBudget is the
	// configured per-chunk byte budget it is expected to respect (up to one
	// same-timestamp item group of slack). RepairChunks counts frames.
	RepairChunkMax, RepairChunkBudget uint64
	RepairChunks                      uint64

	// Scaling1/ScalingN are memnet throughput at 1 and SaturationThreads
	// threads per DC; ScalingRatio is their quotient.
	Scaling1, ScalingN float64
	ScalingRatio       float64
}

// visibilityCluster is the memnet deployment the stabilization arms run on:
// small and zero-latency, so the visibility numbers isolate the
// stabilization cadence rather than simulated geography.
func visibilityCluster(o Options, static bool) (*paris.Cluster, error) {
	cfg := paris.DefaultConfig()
	cfg.NumDCs = 3
	cfg.NumPartitions = 6
	cfg.ReplicationFactor = 2
	cfg.Latency = transport.ZeroLatency{}
	cfg.ApplyInterval = 5 * time.Millisecond
	cfg.GossipInterval = 5 * time.Millisecond
	cfg.USTInterval = 5 * time.Millisecond
	cfg.VisibilitySample = 4
	cfg.GossipStatic = static
	cfg.BatchMaxItems = o.BatchMaxItems
	cfg.BatchMaxBytes = o.BatchMaxBytes
	return paris.NewCluster(cfg)
}

// gossipEnvelopes sums the dedicated stabilization-plane envelope count.
func gossipEnvelopes(c *paris.Cluster) uint64 {
	byKind := c.Net().MessagesByKind()
	return byKind[wire.KindGSTUp] + byKind[wire.KindGSTRoot] + byKind[wire.KindUSTDown]
}

// Visibility runs the experiment.
func Visibility(o Options) (VisibilityComparison, error) {
	o = o.withDefaults()
	var cmp VisibilityComparison

	// Loaded + idle passes for each memnet gossip arm. The idle window
	// starts after a settle period long enough for the Active-bit cascade
	// to drain (tree depth × activity window) and the adaptive loops to
	// walk the backoff ramp to their cap.
	const idleSettle = time.Second
	runArm := func(static bool) (res Result, vis VisSummary, loaded, idle float64, err error) {
		cluster, err := visibilityCluster(o, static)
		if err != nil {
			return Result{}, VisSummary{}, 0, 0, err
		}
		defer cluster.Close()

		g0 := gossipEnvelopes(cluster)
		t0 := time.Now()
		res, err = Run(RunConfig{
			Cluster:      cluster,
			Mix:          hotMix,
			ThreadsPerDC: 2,
			Duration:     o.Duration,
			Warmup:       o.Warmup,
		})
		if err != nil {
			return Result{}, VisSummary{}, 0, 0, err
		}
		loaded = float64(gossipEnvelopes(cluster)-g0) / time.Since(t0).Seconds()

		time.Sleep(idleSettle) // let activity windows lapse and loops back off
		g1 := gossipEnvelopes(cluster)
		t1 := time.Now()
		time.Sleep(o.Duration)
		idle = float64(gossipEnvelopes(cluster)-g1) / time.Since(t1).Seconds()
		return res, summarizeVis(res.Visibility), loaded, idle, nil
	}

	var err error
	o.printf("visibility: memnet delta-gossip arm\n")
	if cmp.Delta, cmp.VisDelta, cmp.LoadedGossipDelta, cmp.IdleGossipDelta, err = runArm(false); err != nil {
		return cmp, err
	}
	o.printf("visibility: memnet static-gossip baseline\n")
	if cmp.Static, cmp.VisStatic, cmp.LoadedGossipStatic, cmp.IdleGossipStatic, err = runArm(true); err != nil {
		return cmp, err
	}
	if cmp.IdleGossipDelta > 0 {
		cmp.IdleReduction = cmp.IdleGossipStatic / cmp.IdleGossipDelta
	}

	o.printf("visibility: loopback TCP arm\n")
	cmp.TCP, err = runTCPLoad(o, 2, 4)
	if err != nil {
		return cmp, err
	}
	cmp.VisTCP = summarizeVis(cmp.TCP.Visibility)

	// Codec size of a busy ΔR round, in both workload shapes.
	cmp.CodecBytes = len(wire.Encode(sampleCounterBatch()))
	cmp.CodecBulkBytes = len(wire.Encode(sampleReplicateBatch()))

	o.printf("visibility: flow-controlled repair-chunk probe\n")
	if err := cmp.repairProbe(o); err != nil {
		return cmp, err
	}

	o.printf("visibility: memnet scaling (1 vs %d threads/DC)\n", o.SaturationThreads)
	for _, threads := range []int{1, o.SaturationThreads} {
		cluster, err := hotpathCluster(o)
		if err != nil {
			return cmp, err
		}
		res, err := Run(RunConfig{
			Cluster:      cluster,
			Mix:          hotMix,
			ThreadsPerDC: threads,
			Duration:     o.Duration,
			Warmup:       o.Warmup,
		})
		cluster.Close()
		if err != nil {
			return cmp, err
		}
		if threads == 1 {
			cmp.Scaling1 = res.ThroughputTx
		} else {
			cmp.ScalingN = res.ThroughputTx
		}
	}
	if cmp.Scaling1 > 0 {
		cmp.ScalingRatio = cmp.ScalingN / cmp.Scaling1
	}
	return cmp, nil
}

// repairProbe starves the replication plane behind a tiny bandwidth budget
// until destinations shed rounds, then lets the cluster catch up and records
// the largest single repair frame the flow pumps served.
func (cmp *VisibilityComparison) repairProbe(o Options) error {
	const chunkBudget = 2 << 10
	cfg := paris.DefaultConfig()
	cfg.NumDCs = 3
	cfg.NumPartitions = 3
	cfg.ReplicationFactor = 2
	cfg.Latency = transport.ZeroLatency{}
	cfg.ApplyInterval = 2 * time.Millisecond
	cfg.GossipInterval = 2 * time.Millisecond
	cfg.USTInterval = 2 * time.Millisecond
	cfg.BatchMaxBytes = chunkBudget
	cfg.BandwidthBudget = 16 << 10 // starved: a write burst outruns this
	cfg.FlowHighWater = 8 << 10
	cfg.FlowLowWater = 2 << 10
	cluster, err := paris.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer cluster.Close()

	sess, err := cluster.NewSession(0)
	if err != nil {
		return err
	}
	defer sess.Close()
	// Burst enough value bytes to shed rounds, then wait for the cluster to
	// catch back up: the degraded destinations summarize, receivers
	// pre-request, and the store-backed repair flows in budget-sized chunks.
	last, err := burstWrites(sess, 512, 256)
	if err != nil {
		return err
	}
	cluster.WaitForUST(last, 10*time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		cmp.RepairChunks, cmp.RepairChunkMax = 0, 0
		for _, srv := range cluster.Servers() {
			m := srv.Metrics()
			cmp.RepairChunks += m.RepairChunksServed
			if m.RepairChunkMaxBytes > cmp.RepairChunkMax {
				cmp.RepairChunkMax = m.RepairChunkMaxBytes
			}
		}
		if cmp.RepairChunks > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	cmp.RepairChunkBudget = chunkBudget
	return nil
}

// burstWrites commits n single-write transactions of valSize-byte values as
// fast as the coordinator accepts them, returning the last commit timestamp.
func burstWrites(sess *paris.Session, n, valSize int) (paris.Timestamp, error) {
	ctx := context.Background()
	val := make([]byte, valSize)
	var last paris.Timestamp
	for i := 0; i < n; i++ {
		ct, err := sess.Put(ctx, map[string][]byte{fmt.Sprintf("burst-%d", i): val})
		if err != nil {
			return last, err
		}
		last = ct
	}
	return last, nil
}

// Report renders the comparison.
func (cmp VisibilityComparison) Report(name string) *Report {
	rep := &Report{
		Name: name,
		Desc: "commit→universally-stable latency and stabilization-plane cost: " +
			"adaptive delta gossip vs fixed-cadence baseline, codec size, repair chunking, memnet scaling",
		Rows: []ReportRow{
			RowFromResult("memnet-delta", cmp.Delta),
			RowFromResult("memnet-static", cmp.Static),
			RowFromResult("tcp-delta", cmp.TCP),
		},
		Summary: map[string]float64{
			"vis_p50_us":        float64(cmp.VisDelta.P50.Microseconds()),
			"vis_p95_us":        float64(cmp.VisDelta.P95.Microseconds()),
			"vis_p99_us":        float64(cmp.VisDelta.P99.Microseconds()),
			"vis_samples":       float64(cmp.VisDelta.Samples),
			"vis_static_p50_us": float64(cmp.VisStatic.P50.Microseconds()),
			"vis_static_p95_us": float64(cmp.VisStatic.P95.Microseconds()),
			"vis_tcp_p50_us":    float64(cmp.VisTCP.P50.Microseconds()),
			"vis_tcp_p95_us":    float64(cmp.VisTCP.P95.Microseconds()),
			"vis_tcp_p99_us":    float64(cmp.VisTCP.P99.Microseconds()),

			"gossip_loaded_msgs_per_sec_delta":  cmp.LoadedGossipDelta,
			"gossip_loaded_msgs_per_sec_static": cmp.LoadedGossipStatic,
			"gossip_idle_msgs_per_sec_delta":    cmp.IdleGossipDelta,
			"gossip_idle_msgs_per_sec_static":   cmp.IdleGossipStatic,
			"gossip_idle_reduction":             cmp.IdleReduction,

			// The _v2 suffix keeps the names comparable with earlier
			// reports, which measured two codec versions.
			"codec_bytes_per_round_v2": float64(cmp.CodecBytes),
			"codec_bulk_bytes_v2":      float64(cmp.CodecBulkBytes),

			"repair_chunks_served":      float64(cmp.RepairChunks),
			"repair_chunk_max_bytes":    float64(cmp.RepairChunkMax),
			"repair_chunk_budget_bytes": float64(cmp.RepairChunkBudget),

			"scaling_memnet_tx_per_sec_1": cmp.Scaling1,
			"scaling_memnet_tx_per_sec_n": cmp.ScalingN,
			"scaling_memnet":              cmp.ScalingRatio,
		},
	}
	return rep
}

// sampleReplicateBatch mirrors a busy ΔR round: 8 commit-timestamp groups of
// 4 single-partition transactions with 2 writes each.
func sampleReplicateBatch() wire.ReplicateBatch {
	batch := wire.ReplicateBatch{SrcDC: 1, UpTo: 10_000}
	for g := 0; g < 8; g++ {
		grp := wire.ReplicateGroup{CT: hlc.Timestamp(1000 + 10*g)}
		for t := 0; t < 4; t++ {
			tx := wire.TxUpdates{TxID: wire.TxID(g*4 + t), SrcDC: 1}
			for w := 0; w < 2; w++ {
				tx.Writes = append(tx.Writes, wire.KV{
					Key:   "warehouse:stock:item-00042",
					Value: []byte(`{"qty":17,"updated_by":"tx"}`),
				})
			}
			grp.Txns = append(grp.Txns, tx)
		}
		batch.Groups = append(batch.Groups, grp)
	}
	return batch
}

// sampleCounterBatch mirrors a hot-mix ΔR round: dense commit timestamps,
// sequential TxIDs, short keys, and 8-byte counter values — the shape where
// per-write framing dominates the frame.
func sampleCounterBatch() wire.ReplicateBatch {
	batch := wire.ReplicateBatch{SrcDC: 2, Epoch: 7, Seq: 12345, UpTo: hlc.New(5000, 0)}
	for g := 0; g < 32; g++ {
		grp := wire.ReplicateGroup{CT: hlc.New(uint64(4000+g), uint16(g))}
		for t := 0; t < 4; t++ {
			grp.Txns = append(grp.Txns, wire.TxUpdates{
				TxID:  wire.NewTxID(2, 7, uint64(100_000+g*4+t)),
				SrcDC: 2,
				Writes: []wire.KV{
					{Key: "user:12345678", Value: []byte("12345678")},
				},
			})
		}
		batch.Groups = append(batch.Groups, grp)
	}
	return batch
}
