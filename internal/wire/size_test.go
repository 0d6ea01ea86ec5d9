package wire

import (
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
)

// TestApproxSizeTracksEncodedSize: for the payload-bearing replication
// messages the estimate must stay within a small constant of the real
// encoded frame — the flow-control accounting depends on it.
func TestApproxSizeTracksEncodedSize(t *testing.T) {
	msgs := []Message{
		ReplicateBatch{SrcDC: 1, Epoch: 2, Seq: 3, UpTo: hlc.New(50, 0), Groups: []ReplicateGroup{
			{CT: hlc.New(31, 0), Txns: []TxUpdates{
				{TxID: 21, SrcDC: 3, Writes: []KV{{Key: "alpha", Value: make([]byte, 1024)}}},
				{TxID: 22, SrcDC: 3, Writes: []KV{{Key: "b", Value: []byte("v")}, {Key: "cc"}}},
			}},
		}},
		ReplicateBatch{SrcDC: 0, UpTo: hlc.New(70, 0)},
		ReplSyncResp{SrcDC: 2, Epoch: 1, NextSeq: 9, UpTo: hlc.New(80, 0), Items: []Item{
			{Key: "k1", Value: make([]byte, 512), UT: hlc.New(5, 0), TxID: 9, SrcDC: 2},
			{Key: "k2", Value: nil, UT: hlc.New(6, 0), TxID: 10, SrcDC: 1},
		}},
		ReplStatus{SrcDC: 1, Epoch: 4, UpTo: hlc.New(90, 0), QueuedBytes: 123456},
	}
	for _, msg := range msgs {
		encoded := len(Encode(msg))
		approx := ApproxSize(msg)
		diff := encoded - approx
		if diff < 0 {
			diff = -diff
		}
		if diff > 64 {
			t.Errorf("%v: ApproxSize=%d, encoded=%d (diff %d > 64)", msg.Kind(), approx, encoded, diff)
		}
	}
}

// TestApproxSizeDefault: header-sized messages get a flat estimate.
func TestApproxSizeDefault(t *testing.T) {
	if got := ApproxSize(CohortCommit{TxID: 1, CommitTS: hlc.New(7, 0)}); got != 64 {
		t.Errorf("ApproxSize(CohortCommit) = %d, want 64", got)
	}
}
