package wire

// Typical encoded widths of the codec's scalar fields (see codec.go). The
// first timestamp and the first TxID of a message are fixed 8-byte values;
// every later one is a zigzag varint delta against its predecessor, a few
// bytes for the millisecond-close timestamps and same-coordinator ids a
// message usually carries. Lengths, counts and DC ids are one-byte varints
// below 128; stream epochs are seeded from the wall clock and take nine.
const (
	tsSize      = 8 // first timestamp of a message
	tsDeltaSize = 4 // every later timestamp
	idSize      = 8 // first TxID of a message
	idDeltaSize = 2 // every later TxID
	lenSize     = 1 // length, count or DC id
	epochSize   = 9
	seqSize     = 2
)

// ApproxSize estimates a message's encoded size in bytes without encoding
// it. The flow-control layer uses it to charge token buckets and account
// send-queue depth, and MemNet uses it to model link serialization time.
// Every payload-bearing message (anything carrying a slice) walks its
// actual keys and values, so the estimate tracks the real frame size
// closely — the wiresync analyzer enforces the coverage; for the remaining
// fixed-shape messages a small flat estimate is enough.
//
// The replication batch builders in internal/server reproduce the
// ReplicateBatch and ReplSyncResp estimates from per-level constants while
// they assemble chunks; keep those in step with the cases below.
func ApproxSize(msg Message) int {
	switch m := msg.(type) {
	case ReplicateBatch:
		// kind, SrcDC, Epoch, Seq, UpTo, UST, Sold, group count
		n := 1 + lenSize + epochSize + seqSize + tsSize + 2*tsDeltaSize + lenSize
		for _, g := range m.Groups {
			n += tsDeltaSize + lenSize // CT, txn count
			for _, tx := range g.Txns {
				n += idDeltaSize + lenSize + lenSize // TxID, SrcDC, write count
				n += kvsSize(tx.Writes)
			}
		}
		return n
	case ReplSyncResp:
		// kind, SrcDC, Epoch, NextSeq, UpTo, item count
		return 1 + lenSize + epochSize + seqSize + tsSize + lenSize + itemsSize(m.Items)
	case CommitRecover:
		return 1 + idSize + tsSize + lenSize + kvsSize(m.Writes)
	case PrepareReq:
		return 1 + idSize + tsSize + tsDeltaSize + lenSize + kvsSize(m.Writes)
	case PrepareBatch:
		n := 1 + lenSize
		for _, r := range m.Reqs {
			n += idDeltaSize + 2*tsDeltaSize + lenSize + kvsSize(r.Writes)
		}
		return n
	case PrepareBatchResp:
		n := 1 + lenSize
		for _, r := range m.Resps {
			n += idDeltaSize + tsDeltaSize + lenSize + lenSize + len(r.Msg)
		}
		return n
	case ReadReq:
		return 1 + idSize + lenSize + keysSize(m.Keys)
	case ReadResp:
		return 1 + lenSize + itemsSize(m.Items)
	case ReadSliceReq:
		return 1 + lenSize + keysSize(m.Keys) + tsSize
	case ReadSliceResp:
		return 1 + lenSize + itemsSize(m.Items)
	case CommitReq:
		return 1 + idSize + tsSize + lenSize + kvsSize(m.Writes)
	case GSTUp:
		// Epoch, Active, Vec, Oldest
		return 1 + seqSize + 1 + lenSize + tsSize + tsDeltaSize*len(m.Vec)
	case GSTRoot:
		return 1 + lenSize + seqSize + 1 + lenSize + tsSize + tsDeltaSize*len(m.Vec)
	case ReplStatus:
		// kind, SrcDC, Epoch, NextSeq, UpTo, UST, Sold, QueuedBytes
		return 1 + lenSize + epochSize + seqSize + tsSize + 2*tsDeltaSize + 3
	default:
		return 64
	}
}

func keysSize(keys []string) int {
	n := 0
	for _, k := range keys {
		n += lenSize + len(k)
	}
	return n
}

// itemsSize charges each item its key/value length prefixes, UT, TxID and
// SrcDC on top of the key and value bytes.
func itemsSize(items []Item) int {
	n := 0
	for _, it := range items {
		n += 2*lenSize + tsDeltaSize + idDeltaSize + lenSize + len(it.Key) + len(it.Value)
	}
	return n
}

// kvsSize charges each write its key/value length prefixes on top of the
// key and value bytes.
func kvsSize(kvs []KV) int {
	n := 0
	for _, kv := range kvs {
		n += 2*lenSize + len(kv.Key) + len(kv.Value)
	}
	return n
}
