package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// TCPNode attaches one node to a real TCP network: it listens for inbound
// connections from peers and lazily dials up to ConnsPerPeer outbound
// connections (stripes) per peer. Each outbound connection is written by a
// single goroutine, so per-connection FIFO order is inherited from TCP
// itself; stripe selection (see stripe) keeps every message class that
// depends on the protocol's FIFO-channel assumption — casts, i.e.
// replication, CohortCommit and AbortTx — on one fixed stripe per peer pair,
// while request/response traffic, which is matched by RequestID and needs no
// ordering, spreads across the rest. Striping exists because a single TCP
// connection serializes all RPCs between two servers through one write queue
// and one kernel socket; under multi-core load that single writer becomes
// the bottleneck long before the NIC does.
//
// TCPNode implements Endpoint; unlike MemNet there is no central Network
// object because each node lives in its own process (see cmd/paris-server).
type TCPNode struct {
	self     topology.NodeID
	book     AddressBook
	handler  Handler
	ln       net.Listener
	nstripes int

	mu sync.Mutex
	// conns holds the outbound stripe set per peer; slots dial lazily.
	conns   map[topology.NodeID][]*tcpConn
	inbound map[net.Conn]*tcpConn
	// routes maps a peer to the write side of an inbound connection it
	// opened to us. Nodes absent from the address book — clients, which
	// listen on ephemeral ports unknown to servers — are answered over the
	// connection they dialed in on, standard RPC reverse routing.
	routes map[topology.NodeID]*tcpConn
	closed bool
	wg     sync.WaitGroup

	// Message counters, mirroring MemNet's so benchmarks can report
	// msgs/op and batching factors for real-TCP clusters too.
	sent        atomic.Uint64
	batches     atomic.Uint64
	batchedEnvs atomic.Uint64
	byKindMu    sync.Mutex
	byKind      map[wire.Kind]uint64
}

// TCPOptions tunes a TCPNode beyond the required constructor arguments.
type TCPOptions struct {
	// ConnsPerPeer is the number of outbound connections (stripes) dialed
	// per peer. 0 or 1 keeps the single-connection behavior. Casts always
	// share one stripe (FIFO); requests and responses hash by RequestID.
	ConnsPerPeer int
}

// AddressBook resolves node ids to dialable addresses.
type AddressBook interface {
	// Addr returns the "host:port" address of node id.
	Addr(id topology.NodeID) (string, error)
}

// StaticBook is a fixed node→address map.
type StaticBook map[topology.NodeID]string

// Addr implements AddressBook.
func (b StaticBook) Addr(id topology.NodeID) (string, error) {
	addr, ok := b[id]
	if !ok {
		return "", fmt.Errorf("%w: %v", ErrUnknownNode, id)
	}
	return addr, nil
}

// ListenTCP starts a node listening on listenAddr (e.g. ":7001"). The
// returned node delivers inbound envelopes to handler and must be closed by
// the caller.
func ListenTCP(self topology.NodeID, listenAddr string, book AddressBook, handler Handler) (*TCPNode, error) {
	return ListenTCPOpts(self, listenAddr, book, handler, TCPOptions{})
}

// ListenTCPOpts is ListenTCP with explicit options.
func ListenTCPOpts(self topology.NodeID, listenAddr string, book AddressBook, handler Handler, opts TCPOptions) (*TCPNode, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	nstripes := opts.ConnsPerPeer
	if nstripes < 1 {
		nstripes = 1
	}
	n := &TCPNode{
		self:     self,
		book:     book,
		handler:  handler,
		ln:       ln,
		nstripes: nstripes,
		conns:    make(map[topology.NodeID][]*tcpConn),
		inbound:  make(map[net.Conn]*tcpConn),
		routes:   make(map[topology.NodeID]*tcpConn),
		byKind:   make(map[wire.Kind]uint64),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// ListenAddr returns the bound listen address (useful with ":0").
func (n *TCPNode) ListenAddr() string { return n.ln.Addr().String() }

// stripe picks the outbound connection index for an envelope. Casts carry
// the protocol's FIFO-channel assumption (replication order, CohortCommit
// before a later AbortTx), so every cast between one pair of nodes maps to
// the same stripe; requests and responses are matched by RequestID on the
// receiving side and may fan out across all stripes.
func (n *TCPNode) stripe(env Envelope) int {
	if n.nstripes == 1 {
		return 0
	}
	if env.Class == ClassCast {
		return int(uint32(env.From.Index)) % n.nstripes
	}
	return int(env.RequestID % uint64(n.nstripes))
}

// countSend tallies one sent envelope (sent total + per-kind).
func (n *TCPNode) countSend(env *Envelope) {
	n.sent.Add(1)
	n.byKindMu.Lock()
	n.byKind[env.Msg.Kind()]++
	n.byKindMu.Unlock()
}

// MessagesSent returns the total envelopes accepted for sending.
func (n *TCPNode) MessagesSent() uint64 { return n.sent.Load() }

// BatchesSent returns the number of SendBatch wire writes accepted.
func (n *TCPNode) BatchesSent() uint64 { return n.batches.Load() }

// BatchedEnvelopes returns the total envelopes delivered via SendBatch.
// (They are also counted by MessagesSent and MessagesByKind, mirroring
// MemNet's accounting.)
func (n *TCPNode) BatchedEnvelopes() uint64 { return n.batchedEnvs.Load() }

// MessagesByKind returns a snapshot of per-kind send counts.
func (n *TCPNode) MessagesByKind() map[wire.Kind]uint64 {
	n.byKindMu.Lock()
	defer n.byKindMu.Unlock()
	out := make(map[wire.Kind]uint64, len(n.byKind))
	for k, v := range n.byKind {
		out[k] = v
	}
	return out
}

// Send implements Endpoint.
func (n *TCPNode) Send(env Envelope) error {
	env.From = n.self
	c, err := n.connOrRoute(&env)
	if err != nil {
		return err
	}
	n.countSend(&env)
	return c.enqueue(env)
}

// SendBatch implements BatchEndpoint: all envelopes (sharing one
// destination) are framed back-to-back into a single pooled buffer and
// handed to the connection's writer as one write, so a whole replication
// round costs one syscall and no per-message allocation.
func (n *TCPNode) SendBatch(envs []Envelope) error {
	if len(envs) == 0 {
		return nil
	}
	for i := range envs {
		envs[i].From = n.self
	}
	// The whole batch rides the first envelope's stripe: batches are cast
	// traffic (replication) and must stay in one FIFO.
	c, err := n.connOrRoute(&envs[0])
	if err != nil {
		return err
	}
	n.sent.Add(uint64(len(envs)))
	n.batches.Add(1)
	n.batchedEnvs.Add(uint64(len(envs)))
	n.byKindMu.Lock()
	for i := range envs {
		n.byKind[envs[i].Msg.Kind()]++
	}
	n.byKindMu.Unlock()
	buf := wire.GetBuffer()
	for i := range envs {
		*buf = appendFrame(*buf, envs[i])
	}
	return c.enqueueBuf(buf)
}

// connOrRoute resolves the connection for an envelope's destination and
// stripe, falling back to the reverse route: the destination may have dialed
// us even though the address book cannot resolve it (clients).
func (n *TCPNode) connOrRoute(env *Envelope) (*tcpConn, error) {
	c, err := n.conn(env.To, n.stripe(*env))
	if err != nil {
		n.mu.Lock()
		rc, ok := n.routes[env.To]
		n.mu.Unlock()
		if !ok {
			return nil, err
		}
		c = rc
	}
	return c, nil
}

// Close implements Endpoint: stops the listener, closes all connections and
// waits for the I/O goroutines.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]*tcpConn, 0, len(n.conns)*n.nstripes)
	for _, stripes := range n.conns {
		for _, c := range stripes {
			if c != nil {
				conns = append(conns, c)
			}
		}
	}
	// Inbound connections must be closed explicitly or their read loops
	// block in ReadFull until the remote side closes — which may itself be
	// waiting on us during an orderly shutdown.
	inbound := make([]*tcpConn, 0, len(n.inbound))
	for _, wc := range n.inbound {
		inbound = append(inbound, wc)
	}
	n.mu.Unlock()

	err := n.ln.Close()
	for _, c := range conns {
		c.close()
	}
	for _, wc := range inbound {
		wc.close()
	}
	n.wg.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("transport: closing listener: %w", err)
	}
	return nil
}

func (n *TCPNode) conn(to topology.NodeID, stripe int) (*tcpConn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if cs, ok := n.conns[to]; ok && cs[stripe] != nil {
		c := cs[stripe]
		n.mu.Unlock()
		return c, nil
	}
	n.mu.Unlock()

	addr, err := n.book.Addr(to)
	if err != nil {
		return nil, err
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %v at %s: %w", to, addr, err)
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = raw.Close()
		return nil, ErrClosed
	}
	cs := n.conns[to]
	if cs == nil {
		cs = make([]*tcpConn, n.nstripes)
		n.conns[to] = cs
	}
	if cs[stripe] != nil { // lost the race; reuse the winner
		c := cs[stripe]
		n.mu.Unlock()
		_ = raw.Close()
		return c, nil
	}
	c := newTCPConn(raw)
	cs[stripe] = c
	n.wg.Add(2)
	go func() {
		defer n.wg.Done()
		c.writeLoop()
	}()
	// Outbound connections are read too: peers reply to requests over the
	// connection they arrived on (reverse routing).
	go func() {
		defer n.wg.Done()
		n.readLoop(raw, c)
	}()
	n.mu.Unlock()
	return c, nil
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		raw, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// The write side of an inbound connection serves as the reverse
		// route for replies to peers the address book cannot resolve.
		wc := newTCPConn(raw)
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = raw.Close()
			return
		}
		n.inbound[raw] = wc
		n.mu.Unlock()
		n.wg.Add(2)
		go func() {
			defer n.wg.Done()
			wc.writeLoop()
		}()
		go func() {
			defer n.wg.Done()
			n.readLoop(raw, wc)
		}()
	}
}

func (n *TCPNode) readLoop(raw net.Conn, wc *tcpConn) {
	var from topology.NodeID
	defer func() {
		wc.close()
		n.mu.Lock()
		delete(n.inbound, raw)
		if n.routes[from] == wc {
			delete(n.routes, from)
		}
		// Evict a dead outbound stripe so future sends redial it.
		for _, stripes := range n.conns {
			for i, c := range stripes {
				if c == wc {
					stripes[i] = nil
				}
			}
		}
		n.mu.Unlock()
	}()
	var header [4]byte
	// One frame buffer per connection, grown to the high-water mark and
	// reused for every message: wire.Decode copies strings and byte slices
	// out of the frame, so nothing delivered aliases it. This mirrors the
	// encode side's pooled buffers — steady-state receiving allocates only
	// the decoded message.
	var frame []byte
	for {
		if _, err := io.ReadFull(raw, header[:]); err != nil {
			return
		}
		size := binary.LittleEndian.Uint32(header[:])
		if size > maxFrameSize {
			return // corrupt peer; drop the connection
		}
		if uint32(cap(frame)) < size {
			frame = make([]byte, size)
		}
		frame = frame[:size]
		if _, err := io.ReadFull(raw, frame); err != nil {
			return
		}
		env, err := decodeFrame(frame)
		if err != nil {
			return
		}
		if env.From != from {
			from = env.From
			n.mu.Lock()
			n.routes[from] = wc
			n.mu.Unlock()
		}
		env.To = n.self
		n.handler.Deliver(env)
		if cap(frame) > maxRetainedFrame {
			frame = nil // don't let one huge batch pin memory forever
		}
	}
}

// maxRetainedFrame caps the per-connection reusable read buffer; a frame
// above it is served by a one-off allocation instead (mirrors the encode
// pool's maxPooledCap).
const maxRetainedFrame = 4 << 20

// maxFrameSize bounds a single message on the wire (64 MiB, far above any
// legitimate PaRiS message).
const maxFrameSize = 64 << 20

// Frame layout after the uint32 length prefix:
//
//	from.DC  int32 | from.Index int32 | from.Role uint8 |
//	class uint8 | requestID uint64 | wire-encoded message
const frameHeaderSize = 4 + 4 + 1 + 1 + 8

// appendFrame appends one length-prefixed frame to buf. Framing is
// append-into-caller-buffer all the way down (wire.AppendMessage), so a
// pooled buffer makes steady-state encoding allocation-free.
func appendFrame(buf []byte, env Envelope) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length prefix, patched below
	buf = binary.LittleEndian.AppendUint32(buf, uint32(env.From.DC))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(env.From.Index))
	buf = append(buf, byte(env.From.Role), byte(env.Class))
	buf = binary.LittleEndian.AppendUint64(buf, env.RequestID)
	buf = wire.AppendMessage(buf, env.Msg)
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

func decodeFrame(frame []byte) (Envelope, error) {
	if len(frame) < frameHeaderSize {
		return Envelope{}, wire.ErrTruncated
	}
	env := Envelope{
		From: topology.NodeID{
			DC:    topology.DCID(int32(binary.LittleEndian.Uint32(frame[0:]))),
			Index: int32(binary.LittleEndian.Uint32(frame[4:])),
			Role:  topology.Role(frame[8]),
		},
		Class:     Class(frame[9]),
		RequestID: binary.LittleEndian.Uint64(frame[10:]),
	}
	msg, err := wire.Decode(frame[frameHeaderSize:])
	if err != nil {
		return Envelope{}, err
	}
	env.Msg = msg
	return env, nil
}

// tcpConn is one outbound connection with a single writer goroutine feeding
// it from an unbounded FIFO queue. Queue entries are pooled encode buffers
// (wire.GetBuffer) holding one or more frames; the writer returns each to
// the pool after flushing it, so steady-state sending does not allocate.
type tcpConn struct {
	raw net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*[]byte
	closed bool
}

func newTCPConn(raw net.Conn) *tcpConn {
	c := &tcpConn{raw: raw}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *tcpConn) enqueue(env Envelope) error {
	buf := wire.GetBuffer()
	*buf = appendFrame(*buf, env)
	return c.enqueueBuf(buf)
}

// enqueueBuf takes ownership of a pooled buffer holding whole frames; it is
// recycled after the write (or dropped on a closed connection).
func (c *tcpConn) enqueueBuf(buf *[]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		wire.PutBuffer(buf)
		return ErrClosed
	}
	c.queue = append(c.queue, buf)
	c.cond.Signal()
	return nil
}

func (c *tcpConn) close() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	_ = c.raw.Close()
}

func (c *tcpConn) writeLoop() {
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.cond.Wait()
		}
		if len(c.queue) == 0 && c.closed {
			c.mu.Unlock()
			return
		}
		batch := c.queue
		c.queue = nil
		c.mu.Unlock()

		for i, buf := range batch {
			_, err := c.raw.Write(*buf)
			wire.PutBuffer(buf)
			if err != nil {
				for _, rest := range batch[i+1:] {
					wire.PutBuffer(rest)
				}
				c.mu.Lock()
				c.closed = true
				c.mu.Unlock()
				return
			}
		}
	}
}

// Compile-time interface compliance.
var (
	_ Endpoint      = (*TCPNode)(nil)
	_ BatchEndpoint = (*TCPNode)(nil)
	_ AddressBook   = StaticBook(nil)
)
