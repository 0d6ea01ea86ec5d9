package server

import (
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// The delta-gossip tests drive gossipTick/ustTick by hand (no background
// loops), so suppression decisions are observable deterministically.

func TestGossipSuppressedWhenQuiescent(t *testing.T) {
	// Partition 2 at DC 0 is a non-root: its push goes to the DC-0 root.
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 2))
	s := rig.srv
	st := &s.stab
	if !st.hasParent {
		t.Fatal("partition 2 should have a parent in this topology")
	}
	parent := rig.peers[st.parent]

	// First tick always pushes (nothing was ever pushed).
	st.gossipTick()
	ups := parent.waitKind(t, wire.KindGSTUp, 1)
	first := ups[0].(wire.GSTUp)
	if first.Epoch != 1 || first.Active {
		t.Fatalf("first push = epoch %d active %v, want epoch 1, inactive", first.Epoch, first.Active)
	}

	// Second tick: content unchanged (manual clock, no applies), no
	// activity — the push is suppressed entirely.
	st.gossipTick()
	if got := s.Metrics().GossipSuppressed; got != 1 {
		t.Fatalf("GossipSuppressed = %d, want 1", got)
	}
	time.Sleep(20 * time.Millisecond)
	if n := len(parent.byKind(wire.KindGSTUp)); n != 1 {
		t.Fatalf("suppressed tick still pushed: %d GSTUp casts", n)
	}

	// Content change bumps the epoch and pushes again.
	heartbeat(s, 2, hlc.New(7, 0))
	st.gossipTick()
	ups = parent.waitKind(t, wire.KindGSTUp, 2)
	second := ups[1].(wire.GSTUp)
	if second.Epoch != 2 {
		t.Fatalf("changed push epoch = %d, want 2", second.Epoch)
	}

	// Data activity forces a push even with unchanged content, with the
	// Active bit set and the epoch untouched.
	st.markData()
	st.gossipTick()
	ups = parent.waitKind(t, wire.KindGSTUp, 3)
	third := ups[2].(wire.GSTUp)
	if third.Epoch != 2 || !third.Active {
		t.Fatalf("active push = epoch %d active %v, want epoch 2, active", third.Epoch, third.Active)
	}
}

func TestGossipStaticModePushesEveryTick(t *testing.T) {
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 2),
		func(c *Config) { c.GossipStatic = true })
	s := rig.srv
	st := &s.stab
	st.gossipTick()
	st.gossipTick()
	st.gossipTick()
	ups := rig.peers[st.parent].waitKind(t, wire.KindGSTUp, 3)
	for i, m := range ups {
		if m.(wire.GSTUp).Active {
			t.Fatalf("static push %d carries an Active bit", i)
		}
	}
	if got := s.Metrics().GossipSuppressed; got != 0 {
		t.Fatalf("static mode suppressed %d pushes", got)
	}
}

func TestActiveBitMarksReceiverActive(t *testing.T) {
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 0))
	st := &rig.srv.stab
	if st.activeNow() {
		t.Fatal("fresh server counts as active")
	}
	vec := make([]hlc.Timestamp, st.numDCs)
	st.handleUp(topology.ServerID(0, 2), wire.GSTUp{Epoch: 1, Active: true, Vec: vec})
	if !st.activeNow() {
		t.Fatal("Active GSTUp did not mark the receiver active")
	}
}

func TestHandleDownActivePropagates(t *testing.T) {
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 0))
	s := rig.srv
	if len(s.stab.children) == 0 {
		t.Skip("no children in this topology")
	}
	msg := wire.USTDown{UST: hlc.New(70, 0), Sold: hlc.New(60, 0), Active: true}
	s.stab.handleDown(msg)
	if !s.stab.activeNow() {
		t.Fatal("Active USTDown did not mark the receiver active")
	}
	// The bit survives the forward so it cascades to the leaves.
	for _, child := range s.stab.children {
		got := rig.peers[child].waitKind(t, wire.KindUSTDown, 1)[0].(wire.USTDown)
		if got != msg {
			t.Fatalf("forwarded %+v, want %+v", got, msg)
		}
	}
}

func TestUSTDownSuppressedWhenQuiescent(t *testing.T) {
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 0))
	s := rig.srv
	st := &s.stab
	if !st.isRoot || len(st.children) == 0 {
		t.Fatal("partition 0 must be DC 0's root with children")
	}
	st.mu.Lock()
	st.remoteVec[0] = []hlc.Timestamp{hlc.New(10, 0), hlc.New(20, 0), hlc.MaxTimestamp}
	st.remoteOldest[0] = hlc.New(10, 0)
	st.mu.Unlock()
	st.handleRoot(wire.GSTRoot{DC: 1,
		Vec:    []hlc.Timestamp{hlc.New(15, 0), hlc.New(25, 0), hlc.MaxTimestamp},
		Oldest: hlc.New(15, 0)})
	st.handleRoot(wire.GSTRoot{DC: 2,
		Vec:    []hlc.Timestamp{hlc.MaxTimestamp, hlc.New(30, 0), hlc.New(12, 0)},
		Oldest: hlc.New(12, 0)})

	st.ustTick()
	for _, child := range st.children {
		rig.peers[child].waitKind(t, wire.KindUSTDown, 1)
	}
	suppressedBefore := s.Metrics().GossipSuppressed

	// Same inputs, no activity: the down-push is suppressed (the subtree
	// already holds these exact values), but the UST itself stays applied.
	st.ustTick()
	if got := s.Metrics().GossipSuppressed; got != suppressedBefore+1 {
		t.Fatalf("GossipSuppressed = %d, want %d", got, suppressedBefore+1)
	}
	time.Sleep(20 * time.Millisecond)
	for _, child := range st.children {
		if n := len(rig.peers[child].byKind(wire.KindUSTDown)); n != 1 {
			t.Fatalf("suppressed ustTick still pushed: %d USTDown casts", n)
		}
	}
	if s.UST() != hlc.New(10, 0) {
		t.Fatalf("UST = %v, want 10.0", s.UST())
	}
}

func TestPiggybackedStableValuesAdopted(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv

	// ReplicateBatch carries the sender's published UST/Sold; the receiver
	// adopts them without waiting for the down-tree gossip.
	deliver(s, wire.ReplicateBatch{
		SrcDC: 1, UpTo: hlc.New(900, 0),
		UST: hlc.New(500, 0), Sold: hlc.New(400, 0),
	})
	if s.UST() != hlc.New(500, 0) || s.Sold() != hlc.New(400, 0) {
		t.Fatalf("batch piggyback not adopted: ust=%v sold=%v", s.UST(), s.Sold())
	}

	// ReplStatus likewise; stale values must not regress (applyStable is
	// monotonic).
	s.handleReplStatus(wire.ReplStatus{SrcDC: 1, UpTo: hlc.New(950, 0),
		UST: hlc.New(600, 0), Sold: hlc.New(450, 0)})
	s.handleReplStatus(wire.ReplStatus{SrcDC: 1, UpTo: hlc.New(960, 0),
		UST: hlc.New(100, 0), Sold: hlc.New(90, 0)})
	if s.UST() != hlc.New(600, 0) || s.Sold() != hlc.New(450, 0) {
		t.Fatalf("status piggyback wrong: ust=%v sold=%v", s.UST(), s.Sold())
	}

	// A zero UST means "no information" and adopts nothing.
	before := s.UST()
	heartbeat(s, 1, hlc.New(990, 0))
	if s.UST() != before {
		t.Fatalf("zero piggyback moved UST to %v", s.UST())
	}
}

func TestAdaptiveLoopBacksOffAndSnapsBack(t *testing.T) {
	// A started server with nothing to do must throttle its gossip plane:
	// over a quiet window the dedicated gossip rate falls well below the
	// fixed-cadence rate, and a write snaps it back to the fast cadence.
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 2),
		func(c *Config) {
			c.GossipInterval = time.Millisecond
			c.USTInterval = time.Millisecond
			c.GossipIdleMax = 64 * time.Millisecond
		})
	s := rig.srv
	s.Start()

	// Let the backoff settle, then measure a quiet window.
	time.Sleep(150 * time.Millisecond)
	parent := rig.peers[s.stab.parent]
	base := len(parent.byKind(wire.KindGSTUp))
	time.Sleep(200 * time.Millisecond)
	idle := len(parent.byKind(wire.KindGSTUp)) - base
	// Fixed cadence would push ~200 in this window; the idle cap bounds the
	// rate at ~1/64ms ≈ 3, plus epoch-change pushes. Allow generous slack
	// for scheduler jitter: anything under a quarter of fixed proves backoff.
	if idle > 50 {
		t.Fatalf("idle window saw %d gossip pushes, backoff not engaged", idle)
	}

	// Activity snaps the cadence back: a burst of pushes follows promptly.
	base = len(parent.byKind(wire.KindGSTUp))
	s.stab.markData()
	deadline := time.Now().Add(2 * time.Second)
	for len(parent.byKind(wire.KindGSTUp)) == base {
		if time.Now().After(deadline) {
			t.Fatal("no gossip push within 2s of markData")
		}
		time.Sleep(time.Millisecond)
	}
}
