package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

func TestFrameRoundTrip(t *testing.T) {
	env := Envelope{
		From:      topology.ServerID(3, 17),
		Class:     ClassRequest,
		RequestID: 12345,
		Msg:       wire.PrepareReq{TxID: 9, Snapshot: 1, HT: 2, Writes: []wire.KV{{Key: "k", Value: []byte("v")}}},
	}
	frame := appendFrame(nil, env)
	// Strip the length prefix as the read loop does.
	got, err := decodeFrame(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	if got.From != env.From || got.Class != env.Class || got.RequestID != env.RequestID {
		t.Fatalf("header mismatch: %+v vs %+v", got, env)
	}
	if _, ok := got.Msg.(wire.PrepareReq); !ok {
		t.Fatalf("payload type lost: %T", got.Msg)
	}
}

func TestFrameRejectsShortBuffer(t *testing.T) {
	if _, err := decodeFrame([]byte{1, 2, 3}); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestFrameQuickRoundTrip(t *testing.T) {
	f := func(dc int32, idx int32, role uint8, class uint8, reqID uint64, ts uint64) bool {
		env := Envelope{
			From: topology.NodeID{
				DC:    topology.DCID(dc),
				Index: idx,
				Role:  topology.Role(role),
			},
			Class:     Class(class),
			RequestID: reqID,
			Msg:       wire.USTDown{UST: hlc.Timestamp(ts)},
		}
		got, err := decodeFrame(appendFrame(nil, env)[4:])
		return err == nil && got.From == env.From && got.Class == env.Class &&
			got.RequestID == env.RequestID && got.Msg.(wire.USTDown).UST == hlc.Timestamp(ts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// startTCPNode is a test helper that wires a Peer over a real TCP listener.
func startTCPNode(t *testing.T, self topology.NodeID, handler RequestHandler, book StaticBook) (*Peer, *TCPNode) {
	t.Helper()
	p := NewPeer(self, handler)
	node, err := ListenTCP(self, "127.0.0.1:0", book, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	p.Attach(node)
	return p, node
}

// TestTCPFreshConnectionNeedsNoNegotiation lets a raw listener stand in
// for a peer: the first bytes a TCPNode writes on a new connection must be
// exactly the one frame it was asked to send, with a body that wire.Decode
// reads back as the sent message — no handshake precedes it.
func TestTCPFreshConnectionNeedsNoNegotiation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	node, err := ListenTCP(nodeA, "127.0.0.1:0", StaticBook{nodeB: ln.Addr().String()}, newCollector())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	sent := wire.CohortCommit{TxID: wire.NewTxID(0, 0, 7), CommitTS: hlc.New(42, 1)}
	if err := node.Send(Envelope{To: nodeB, Class: ClassCast, Msg: sent}); err != nil {
		t.Fatal(err)
	}
	raw, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	// Read everything the node writes until it goes quiet.
	var got []byte
	buf := make([]byte, 4096)
	for {
		_ = raw.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, err := raw.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			break
		}
	}
	if len(got) < 4 {
		t.Fatalf("node wrote %d bytes, want one frame", len(got))
	}
	size := int(binary.LittleEndian.Uint32(got))
	if len(got) != 4+size {
		t.Fatalf("node wrote %d bytes, want exactly one frame of 4+%d", len(got), size)
	}
	env, err := decodeFrame(got[4:])
	if err != nil {
		t.Fatal(err)
	}
	if env.From != nodeA || env.Class != ClassCast {
		t.Fatalf("frame header = %+v, want from %v class cast", env, nodeA)
	}
	msg, err := wire.Decode(got[4+frameHeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if msg != wire.Message(sent) {
		t.Fatalf("decoded %#v, want %#v", msg, sent)
	}
}

func TestTCPCallRoundTrip(t *testing.T) {
	book := StaticBook{}
	_, nodeBB := startTCPNode(t, nodeB, &echoHandler{}, book)
	book[nodeB] = nodeBB.ListenAddr()
	pA, nodeAA := startTCPNode(t, nodeA, nopHandler{}, book)
	book[nodeA] = nodeAA.ListenAddr()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := pA.Call(ctx, nodeB, wire.StartTxReq{ClientUST: 11})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(wire.StartTxResp).Snapshot != 11 {
		t.Fatalf("bad response %+v", resp)
	}
}

func TestTCPCastsPreserveFIFO(t *testing.T) {
	book := StaticBook{}
	h := &echoHandler{}
	_, nodeBB := startTCPNode(t, nodeB, h, book)
	book[nodeB] = nodeBB.ListenAddr()
	pA, nodeAA := startTCPNode(t, nodeA, nopHandler{}, book)
	book[nodeA] = nodeAA.ListenAddr()

	const n = 200
	for i := 0; i < n; i++ {
		if err := pA.Cast(nodeB, wire.USTDown{UST: hlc.Timestamp(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.mu.Lock()
		count := len(h.casts)
		h.mu.Unlock()
		if count >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d casts arrived", count, n)
		}
		time.Sleep(time.Millisecond)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, msg := range h.casts {
		if ts := msg.(wire.USTDown).UST; ts != hlc.Timestamp(i) {
			t.Fatalf("TCP FIFO violated at %d: ts=%d", i, ts)
		}
	}
}

func TestTCPUnknownAddress(t *testing.T) {
	pA, _ := startTCPNode(t, nodeA, nopHandler{}, StaticBook{})
	if err := pA.Cast(nodeB, wire.USTDown{}); err == nil {
		t.Fatal("cast to unknown address succeeded")
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	book := StaticBook{}
	p := NewPeer(nodeA, nopHandler{})
	node, err := ListenTCP(nodeA, "127.0.0.1:0", book, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Attach(node)
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if err := node.Send(Envelope{To: nodeB, Class: ClassCast, Msg: wire.USTDown{}}); err == nil {
		t.Fatal("send accepted after close")
	}
	// Double close is fine.
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStaticBookUnknown(t *testing.T) {
	b := StaticBook{nodeA: "x"}
	if _, err := b.Addr(nodeB); err == nil {
		t.Fatal("unknown node resolved")
	}
	if addr, err := b.Addr(nodeA); err != nil || addr != "x" {
		t.Fatalf("Addr = %q, %v", addr, err)
	}
}

func TestTCPCloseDoesNotHangOnInboundConnections(t *testing.T) {
	// Regression test: Close must terminate read loops on *inbound*
	// connections even while the remote end keeps its outbound side open.
	// Before the fix, two nodes closing in sequence deadlocked: each Close
	// waited on a read loop fed by the other node's still-open connection.
	book := StaticBook{}
	pB, nodeBB := startTCPNode(t, nodeB, &echoHandler{}, book)
	book[nodeB] = nodeBB.ListenAddr()
	pA, nodeAA := startTCPNode(t, nodeA, &echoHandler{}, book)
	book[nodeA] = nodeAA.ListenAddr()

	// Establish connections in both directions (request + reply dial back).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := pA.Call(ctx, nodeB, wire.StartTxReq{ClientUST: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := pB.Call(ctx, nodeA, wire.StartTxReq{ClientUST: 2}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		_ = nodeAA.Close()
		_ = nodeBB.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sequential Close of interconnected nodes deadlocked")
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	// Many concurrent calls through one node pair: exercises connection
	// reuse, request-id matching and writer batching under contention.
	book := StaticBook{}
	_, nodeBB := startTCPNode(t, nodeB, &echoHandler{}, book)
	book[nodeB] = nodeBB.ListenAddr()
	pA, nodeAA := startTCPNode(t, nodeA, nopHandler{}, book)
	book[nodeA] = nodeAA.ListenAddr()

	const workers = 16
	const callsPerWorker = 50
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < callsPerWorker; i++ {
				want := hlc.Timestamp(w*callsPerWorker + i)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				resp, err := pA.Call(ctx, nodeB, wire.StartTxReq{ClientUST: want})
				cancel()
				if err != nil {
					errs <- err
					return
				}
				if got := resp.(wire.StartTxResp).Snapshot; got != want {
					errs <- fmt.Errorf("response mismatch: got %v want %v", got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPReverseRouteForUnresolvableCaller(t *testing.T) {
	// A client dials a server whose address book has no entry for the
	// client (the real deployment case: clients listen on ephemeral ports
	// servers never learn). The reply must come back over the request's own
	// connection.
	serverBook := StaticBook{} // knows nobody
	_, serverNode := startTCPNode(t, nodeB, &echoHandler{}, serverBook)

	clientBook := StaticBook{nodeB: serverNode.ListenAddr()}
	pA, _ := startTCPNode(t, nodeA, nopHandler{}, clientBook)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := pA.Call(ctx, nodeB, wire.StartTxReq{ClientUST: 77})
	if err != nil {
		t.Fatalf("reverse-routed call failed: %v", err)
	}
	if resp.(wire.StartTxResp).Snapshot != 77 {
		t.Fatalf("bad response %+v", resp)
	}
}
