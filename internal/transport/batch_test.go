package transport

import (
	"sync"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// collectHandler records delivered casts in order.
type collectHandler struct {
	mu   sync.Mutex
	msgs []wire.Message
}

func (h *collectHandler) HandleRequest(topology.NodeID, wire.Message, func(wire.Message)) {}

func (h *collectHandler) HandleCast(_ topology.NodeID, msg wire.Message) {
	h.mu.Lock()
	h.msgs = append(h.msgs, msg)
	h.mu.Unlock()
}

func (h *collectHandler) wait(t *testing.T, n int) []wire.Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.mu.Lock()
		if len(h.msgs) >= n {
			out := append([]wire.Message(nil), h.msgs...)
			h.mu.Unlock()
			return out
		}
		h.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d casts", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func batchOf(n int) []wire.Message {
	msgs := make([]wire.Message, n)
	for i := range msgs {
		msgs[i] = wire.USTDown{UST: hlc.Timestamp(i + 1)}
	}
	return msgs
}

func TestMemNetCastBatchDeliversInOrder(t *testing.T) {
	net := NewMemNet(nil)
	defer func() { _ = net.Close() }()

	a := topology.ServerID(0, 0)
	b := topology.ServerID(1, 0)
	var h collectHandler
	sender := NewPeer(a, &collectHandler{})
	receiver := NewPeer(b, &h)
	epA, err := net.Register(a, sender)
	if err != nil {
		t.Fatal(err)
	}
	sender.Attach(epA)
	epB, err := net.Register(b, receiver)
	if err != nil {
		t.Fatal(err)
	}
	receiver.Attach(epB)

	if err := sender.CastBatch(b, batchOf(5)); err != nil {
		t.Fatal(err)
	}
	got := h.wait(t, 5)
	for i, m := range got {
		ud, ok := m.(wire.USTDown)
		if !ok || ud.UST != hlc.Timestamp(i+1) {
			t.Fatalf("cast %d = %#v, want USTDown UST=%d", i, m, i+1)
		}
	}
	if net.BatchesSent() != 1 {
		t.Fatalf("BatchesSent = %d, want 1", net.BatchesSent())
	}
	if net.BatchedEnvelopes() != 5 {
		t.Fatalf("BatchedEnvelopes = %d, want 5", net.BatchedEnvelopes())
	}
	if net.MessagesSent() != 5 {
		t.Fatalf("MessagesSent = %d, want 5", net.MessagesSent())
	}
	if got := net.MessagesByKind()[wire.KindUSTDown]; got != 5 {
		t.Fatalf("byKind[USTDown] = %d, want 5", got)
	}
}

func TestCastBatchDegenerateSizes(t *testing.T) {
	net := NewMemNet(nil)
	defer func() { _ = net.Close() }()
	a, b := topology.ServerID(0, 0), topology.ServerID(1, 0)
	var h collectHandler
	sender := NewPeer(a, &collectHandler{})
	receiver := NewPeer(b, &h)
	epA, _ := net.Register(a, sender)
	sender.Attach(epA)
	epB, _ := net.Register(b, receiver)
	receiver.Attach(epB)

	if err := sender.CastBatch(b, nil); err != nil {
		t.Fatalf("empty CastBatch: %v", err)
	}
	if err := sender.CastBatch(b, batchOf(1)); err != nil {
		t.Fatalf("single CastBatch: %v", err)
	}
	h.wait(t, 1)
	// A single-message batch takes the plain Cast path: no batch accounted.
	if net.BatchesSent() != 0 {
		t.Fatalf("BatchesSent = %d, want 0", net.BatchesSent())
	}
}

func TestTCPSendBatchDeliversInOrder(t *testing.T) {
	a := topology.ServerID(0, 0)
	b := topology.ServerID(1, 0)
	var h collectHandler
	receiver := NewPeer(b, &h)

	book := StaticBook{}
	nodeB, err := ListenTCP(b, "127.0.0.1:0", book, receiver)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nodeB.Close() }()
	book[b] = nodeB.ListenAddr()

	sender := NewPeer(a, &collectHandler{})
	nodeA, err := ListenTCP(a, "127.0.0.1:0", book, sender)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nodeA.Close() }()
	sender.Attach(nodeA)
	receiver.Attach(nodeB)

	const n = 100
	if err := sender.CastBatch(b, batchOf(n)); err != nil {
		t.Fatal(err)
	}
	got := h.wait(t, n)
	for i, m := range got {
		ud, ok := m.(wire.USTDown)
		if !ok || ud.UST != hlc.Timestamp(i+1) {
			t.Fatalf("cast %d = %#v, want USTDown UST=%d", i, m, i+1)
		}
	}
}

func TestTCPSendBatchInterleavesWithSend(t *testing.T) {
	a := topology.ServerID(0, 0)
	b := topology.ServerID(1, 0)
	var h collectHandler
	receiver := NewPeer(b, &h)

	book := StaticBook{}
	nodeB, err := ListenTCP(b, "127.0.0.1:0", book, receiver)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nodeB.Close() }()
	book[b] = nodeB.ListenAddr()

	sender := NewPeer(a, &collectHandler{})
	nodeA, err := ListenTCP(a, "127.0.0.1:0", book, sender)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nodeA.Close() }()
	sender.Attach(nodeA)
	receiver.Attach(nodeB)

	// Alternate singles and batches; FIFO across both paths must hold.
	want := 0
	for round := 0; round < 10; round++ {
		want++
		if err := sender.Cast(b, wire.USTDown{UST: hlc.Timestamp(want)}); err != nil {
			t.Fatal(err)
		}
		msgs := make([]wire.Message, 3)
		for i := range msgs {
			want++
			msgs[i] = wire.USTDown{UST: hlc.Timestamp(want)}
		}
		if err := sender.CastBatch(b, msgs); err != nil {
			t.Fatal(err)
		}
	}
	got := h.wait(t, want)
	for i, m := range got {
		ud, ok := m.(wire.USTDown)
		if !ok || ud.UST != hlc.Timestamp(i+1) {
			t.Fatalf("cast %d = %#v, want USTDown UST=%d", i, m, i+1)
		}
	}
}
