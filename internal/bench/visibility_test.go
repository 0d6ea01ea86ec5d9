package bench

import (
	"bytes"
	"testing"
	"time"
)

func TestVisibilityDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("visibility driver runs multiple clusters; skipped in -short")
	}
	var out bytes.Buffer
	cmp, err := Visibility(quickOpts(&out))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Delta.Committed == 0 || cmp.Static.Committed == 0 || cmp.TCP.Committed == 0 {
		t.Fatalf("arm committed nothing: delta=%d static=%d tcp=%d",
			cmp.Delta.Committed, cmp.Static.Committed, cmp.TCP.Committed)
	}
	// Every loaded arm must actually sample commit→stable latencies, and the
	// samples must be plausible (positive, under a minute).
	for name, vis := range map[string]VisSummary{
		"delta": cmp.VisDelta, "static": cmp.VisStatic, "tcp": cmp.VisTCP,
	} {
		if vis.Samples == 0 {
			t.Fatalf("%s arm collected no visibility samples", name)
		}
		if vis.P50 <= 0 || vis.P99 > time.Minute || vis.P50 > vis.P99 {
			t.Fatalf("%s arm visibility percentiles implausible: %+v", name, vis)
		}
	}
	// The idle delta plane must gossip strictly less than the static
	// baseline; the full ≥5× headline is asserted by the PR10 report run,
	// not here, where the windows are CI-short.
	if cmp.IdleGossipDelta >= cmp.IdleGossipStatic {
		t.Fatalf("idle delta gossip %.1f/s not below static %.1f/s",
			cmp.IdleGossipDelta, cmp.IdleGossipStatic)
	}
	if cmp.CodecBytes == 0 || cmp.CodecBulkBytes == 0 {
		t.Fatalf("codec probe measured nothing: hot %dB bulk %dB", cmp.CodecBytes, cmp.CodecBulkBytes)
	}
	if cmp.RepairChunks == 0 {
		t.Fatal("flow-controlled probe served no repair chunks")
	}
	// One same-UT group of 256-byte single-write items can overshoot the
	// budget by at most one item's cost; anything beyond that means the
	// chunker is not bounding frames.
	slack := uint64(256 + 64)
	if cmp.RepairChunkMax > cmp.RepairChunkBudget+slack {
		t.Fatalf("repair chunk max %dB exceeds budget %dB (+%dB slack)",
			cmp.RepairChunkMax, cmp.RepairChunkBudget, slack)
	}
	rep := cmp.Report("visibility")
	if len(rep.Rows) != 3 || rep.Summary["vis_samples"] == 0 {
		t.Fatalf("report malformed: %+v", rep)
	}
}
