package server

import (
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

func TestStabilizerTreeShape(t *testing.T) {
	// 5 DCs × 45 partitions × RF 2 → 18 partitions per DC. The tree must be
	// a single binary tree per DC: one root, every other node has a parent,
	// child links mirror parent links.
	topo, err := topology.New(5, 45, 2)
	if err != nil {
		t.Fatal(err)
	}
	dc := topology.DCID(0)
	local := topo.PartitionsAt(dc)

	type nodeInfo struct {
		st *stabilizer
	}
	nodes := make(map[topology.NodeID]*nodeInfo)
	for _, p := range local {
		srv, err := New(Config{ID: topology.ServerID(dc, p), Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		nodes[srv.self] = &nodeInfo{st: &srv.stab}
	}

	roots := 0
	for id, n := range nodes {
		if n.st.isRoot {
			roots++
			if n.st.hasParent {
				t.Fatalf("root %v has a parent", id)
			}
			if len(n.st.remoteRoots) != 4 {
				t.Fatalf("root %v knows %d remote roots, want 4", id, len(n.st.remoteRoots))
			}
			continue
		}
		if !n.st.hasParent {
			t.Fatalf("non-root %v has no parent", id)
		}
		parent, ok := nodes[n.st.parent]
		if !ok {
			t.Fatalf("%v's parent %v not in DC", id, n.st.parent)
		}
		found := false
		for _, c := range parent.st.children {
			if c == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("parent %v does not list child %v", n.st.parent, id)
		}
	}
	if roots != 1 {
		t.Fatalf("%d roots in one DC", roots)
	}

	// Every node is reachable from the root (tree is connected).
	var root topology.NodeID
	for id, n := range nodes {
		if n.st.isRoot {
			root = id
		}
	}
	seen := map[topology.NodeID]bool{root: true}
	frontier := []topology.NodeID{root}
	for len(frontier) > 0 {
		next := frontier[0]
		frontier = frontier[1:]
		for _, c := range nodes[next].st.children {
			if !seen[c] {
				seen[c] = true
				frontier = append(frontier, c)
			}
		}
	}
	if len(seen) != len(nodes) {
		t.Fatalf("tree reaches %d of %d nodes", len(seen), len(nodes))
	}
}

func TestLocalContributionShape(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	heartbeat(s, 1, hlc.New(7, 0))

	vec, oldest := s.stab.localContribution()
	if len(vec) != 3 {
		t.Fatalf("vector has %d entries, want M=3", len(vec))
	}
	// Partition 0 is replicated at DCs 0 and 1; entry 2 must be undefined.
	if vec[2] != hlc.MaxTimestamp {
		t.Fatalf("non-replica entry defined: %v", vec[2])
	}
	if vec[1] != hlc.New(7, 0) {
		t.Fatalf("vec[1] = %v, want 7.0", vec[1])
	}
	if vec[0] != 0 {
		t.Fatalf("vec[0] = %v, want 0 (nothing applied)", vec[0])
	}
	// No running transactions: oldest falls back to the server's UST.
	if oldest != s.UST() {
		t.Fatalf("oldest %v, want ust %v", oldest, s.UST())
	}
}

func TestOldestTracksActiveTransactions(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	s.applyStable(hlc.New(100, 0), 0) // ust = 100
	resp := s.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
	_, oldest := s.stab.localContribution()
	if oldest != resp.Snapshot {
		t.Fatalf("oldest %v, want active snapshot %v", oldest, resp.Snapshot)
	}
	s.handleFinishTx(wire.FinishTx{TxID: resp.TxID})
	_, oldest = s.stab.localContribution()
	if oldest != s.UST() {
		t.Fatalf("oldest %v after finish, want ust", oldest)
	}
}

func TestAggregateSubtreeWaitsForChildren(t *testing.T) {
	// A root whose children have not reported yet must aggregate to 0: a
	// silent subtree may still hold version vectors at 0.
	topo, err := topology.New(3, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{ID: topology.ServerID(0, 0), Topology: topo, Clock: clockAt(5000)})
	if err != nil {
		t.Fatal(err)
	}
	if len(srv.stab.children) == 0 {
		t.Skip("partition 0 has no children in this topology")
	}
	heartbeat(srv, 1, hlc.New(42, 0))
	vec, oldest := srv.stab.aggregateSubtree()
	for i, ts := range vec {
		if ts != 0 {
			t.Fatalf("vec[%d] = %v before children reported", i, ts)
		}
	}
	if oldest != 0 {
		t.Fatalf("oldest = %v before children reported", oldest)
	}

	// After every child reports, the aggregate folds their minima.
	for _, child := range srv.stab.children {
		srv.stab.handleUp(child, wire.GSTUp{
			Vec:    []hlc.Timestamp{hlc.New(50, 0), hlc.New(60, 0), hlc.MaxTimestamp},
			Oldest: hlc.New(55, 0),
		})
	}
	vec, _ = srv.stab.aggregateSubtree()
	if vec[0] != 0 { // own VV[self] is still 0
		t.Fatalf("vec[0] = %v, want 0", vec[0])
	}
	if vec[1] != hlc.New(42, 0) { // min(own 42, child 60)
		t.Fatalf("vec[1] = %v, want 42.0", vec[1])
	}
	// Entry 2 is undefined locally and in the children: it stays +∞ so it
	// never constrains the global minimum.
	if vec[2] != hlc.MaxTimestamp {
		t.Fatalf("vec[2] = %v, want MaxTimestamp", vec[2])
	}
}

// clockAt returns a manual clock source pinned at the given millisecond.
func clockAt(ms uint64) physicalAt { return physicalAt(ms) }

type physicalAt uint64

func (p physicalAt) NowMillis() uint64 { return uint64(p) }

func TestUSTTickRequiresAllParticipants(t *testing.T) {
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{ID: topology.ServerID(0, 0), Topology: topo, Clock: clockAt(1000)})
	if err != nil {
		t.Fatal(err)
	}
	st := &srv.stab
	if !st.isRoot {
		t.Fatal("partition 0 must be DC 0's root")
	}

	// Own DC aggregate known, remote DCs silent → UST must not move.
	st.mu.Lock()
	st.remoteVec[0] = []hlc.Timestamp{hlc.New(10, 0), hlc.New(20, 0), hlc.MaxTimestamp}
	st.remoteOldest[0] = hlc.New(10, 0)
	st.mu.Unlock()
	st.ustTick()
	if srv.UST() != 0 {
		t.Fatalf("UST advanced to %v with missing participants", srv.UST())
	}

	// All participants report → UST = global min of defined entries.
	st.handleRoot(wire.GSTRoot{DC: 1,
		Vec:    []hlc.Timestamp{hlc.New(15, 0), hlc.New(25, 0), hlc.MaxTimestamp},
		Oldest: hlc.New(15, 0)})
	st.handleRoot(wire.GSTRoot{DC: 2,
		Vec:    []hlc.Timestamp{hlc.MaxTimestamp, hlc.New(30, 0), hlc.New(12, 0)},
		Oldest: hlc.New(12, 0)})
	st.ustTick()
	if srv.UST() != hlc.New(10, 0) {
		t.Fatalf("UST = %v, want 10.0 (global min)", srv.UST())
	}
	if srv.Sold() != hlc.New(10, 0) {
		t.Fatalf("Sold = %v, want 10.0", srv.Sold())
	}
}

func TestUSTMonotonicUnderStaleGossip(t *testing.T) {
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{ID: topology.ServerID(0, 0), Topology: topo, Clock: clockAt(1000)})
	if err != nil {
		t.Fatal(err)
	}
	srv.applyStable(hlc.New(100, 0), hlc.New(90, 0))
	// A stale (lower) announcement must not regress either value.
	srv.applyStable(hlc.New(50, 0), hlc.New(40, 0))
	if srv.UST() != hlc.New(100, 0) || srv.Sold() != hlc.New(90, 0) {
		t.Fatalf("stale gossip regressed stable values: ust=%v sold=%v", srv.UST(), srv.Sold())
	}
}

func TestHandleDownForwardsToChildren(t *testing.T) {
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 0))
	s := rig.srv
	if len(s.stab.children) == 0 {
		t.Skip("no children in this topology")
	}
	msg := wire.USTDown{UST: hlc.New(70, 0), Sold: hlc.New(60, 0)}
	s.stab.handleDown(msg)
	if s.UST() != hlc.New(70, 0) {
		t.Fatalf("UST not applied: %v", s.UST())
	}
	for _, child := range s.stab.children {
		col := rig.peers[child]
		msgs := col.waitKind(t, wire.KindUSTDown, 1)
		if got := msgs[0].(wire.USTDown); got != msg {
			t.Fatalf("forwarded %+v, want %+v", got, msg)
		}
	}
}

func TestMalformedGossipIgnored(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	// Wrong vector length must not corrupt state or panic.
	s.stab.handleUp(topology.ServerID(0, 2), wire.GSTUp{Vec: []hlc.Timestamp{1}})
	s.stab.handleRoot(wire.GSTRoot{DC: 1, Vec: []hlc.Timestamp{1, 2}})
	s.stab.mu.Lock()
	defer s.stab.mu.Unlock()
	if len(s.stab.childVec) != 0 || len(s.stab.remoteVec) != 0 {
		t.Fatal("malformed gossip stored")
	}
}
