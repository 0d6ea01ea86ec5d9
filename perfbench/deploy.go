package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/paris-kv/paris"
	"github.com/paris-kv/paris/internal/client"
	"github.com/paris-kv/paris/internal/server"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
	"github.com/paris-kv/paris/internal/workload"
)

// cadence is ΔR = ΔG = ΔU on every workload: the paper's 5 ms, pinned so the
// background loops cost the same CPU whatever the latency scale.
const cadence = 5 * time.Millisecond

// keysPerPartition sizes the preloaded key space, as internal/bench does by
// default. A small key space keeps the preload, the CPU-bound part of
// setup_s, short beside the timer-bound wait for the UST.
const keysPerPartition = 100

// preparedTTL and txContextTTL shorten how long coordinators remember their
// commit decisions (4×PreparedTTL, pruned every TxContextTTL/2) from the
// default 480 s to 4 s, pruned every second. With the default the decision
// maps grow through any run of tens of seconds, and the heap with them, so
// throughput drifted by up to 40% within a 60 s run; with these the decision
// memory is steady before warm-up ends. Neither fires on a live transaction:
// prepares resolve in milliseconds and sessions are never idle.
const (
	preparedTTL  = time.Second
	txContextTTL = 2 * time.Second
)

// spec is one benchmark workload: a deployment shape and a transaction mix.
type spec struct {
	name  string
	mix   workload.Mix
	start func() (deployment, error)
}

var specs = []spec{
	{
		// Only TCP runs internal/wire encode/decode and framing; writes are
		// where 2PC, ΔR replication, apply, GC and the codec do their work,
		// and the read path still runs in a different proportion.
		name: "write-heavy-tcp",
		mix: workload.Mix{ReadsPerTx: 10, WritesPerTx: 10, PartitionsPerTx: 4,
			LocalRatio: 0.95, Theta: 0.99, ValueSize: 256, ValueJitter: 256},
		start: func() (deployment, error) { return startTCP(3, 6, 2) },
	},
	{
		// The paper's default deployment (§V-A) at 5% of AWS latency:
		// WAN-bound latency, stabilization and cross-geography replication,
		// remote fan-out where the slowest partition sets the time.
		name: "geo-paper",
		mix:  workload.ReadHeavy,
		start: func() (deployment, error) {
			return startMemNet(paris.DefaultConfig())
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// deployment is a running cluster: an embedded MemNet cluster or a fleet of
// servers each on its own loopback TCP listener.
type deployment interface {
	topo() *topology.Topology
	servers() []*server.Server
	// newSession opens a client homed in dc; closing it releases its
	// network endpoint.
	newSession(dc topology.DCID) (*client.Client, func(), error)
	net() netCounters
	close()
}

// netCounters is a snapshot of the transport layer's public counters.
type netCounters struct {
	sent, batches, batchedEnvs uint64
	byKind                     map[wire.Kind]uint64
	// dropped is MemNet's drop counter; TCP nodes keep none.
	dropped    uint64
	hasDropped bool
}

type memDeployment struct {
	c *paris.Cluster
}

func startMemNet(cfg paris.Config) (deployment, error) {
	cfg.ApplyInterval, cfg.GossipInterval, cfg.USTInterval = cadence, cadence, cadence
	cfg.PreparedTTL, cfg.TxContextTTL = preparedTTL, txContextTTL
	c, err := paris.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return &memDeployment{c: c}, nil
}

func (d *memDeployment) topo() *topology.Topology  { return d.c.Topology() }
func (d *memDeployment) servers() []*server.Server { return d.c.Servers() }
func (d *memDeployment) close()                    { _ = d.c.Close() }

func (d *memDeployment) newSession(dc topology.DCID) (*client.Client, func(), error) {
	s, err := d.c.NewSession(dc)
	if err != nil {
		return nil, nil, err
	}
	return s.Client(), s.Close, nil
}

func (d *memDeployment) net() netCounters {
	n := d.c.Net()
	return netCounters{
		sent: n.MessagesSent(), batches: n.BatchesSent(), batchedEnvs: n.BatchedEnvelopes(),
		byKind: n.MessagesByKind(), dropped: n.DroppedMessages(), hasDropped: true,
	}
}

// tcpDeployment runs every server and every client session on its own
// 127.0.0.1 listener, as cmd/paris-server does, with paris-server's default
// GC interval.
type tcpDeployment struct {
	t     *topology.Topology
	book  *transport.SyncBook
	srvs  []*server.Server
	nodes []*transport.TCPNode

	mu      sync.Mutex
	clients map[*transport.TCPNode]bool
	seq     map[topology.DCID]int32
}

func startTCP(dcs, partitions, rf int) (deployment, error) {
	t, err := topology.New(dcs, partitions, rf)
	if err != nil {
		return nil, err
	}
	d := &tcpDeployment{t: t, book: transport.NewSyncBook(),
		clients: make(map[*transport.TCPNode]bool), seq: make(map[topology.DCID]int32)}
	for _, id := range t.AllServers() {
		srv, err := server.New(server.Config{ID: id, Topology: t,
			ApplyInterval: cadence, GossipInterval: cadence, USTInterval: cadence,
			GCInterval: time.Second, PreparedTTL: preparedTTL, TxContextTTL: txContextTTL})
		if err != nil {
			d.close()
			return nil, err
		}
		node, err := transport.ListenTCP(id, "127.0.0.1:0", d.book, srv.Peer())
		if err != nil {
			d.close()
			return nil, err
		}
		srv.Peer().Attach(node)
		d.book.Set(id, node.ListenAddr())
		d.srvs = append(d.srvs, srv)
		d.nodes = append(d.nodes, node)
	}
	for _, s := range d.srvs {
		s.Start()
	}
	return d, nil
}

func (d *tcpDeployment) topo() *topology.Topology  { return d.t }
func (d *tcpDeployment) servers() []*server.Server { return d.srvs }

// newSession mirrors paris.Cluster.NewSession: the coordinator is the next
// local partition of dc, round-robin.
func (d *tcpDeployment) newSession(dc topology.DCID) (*client.Client, func(), error) {
	local := d.t.PartitionsAt(dc)
	if len(local) == 0 {
		return nil, nil, fmt.Errorf("DC %d hosts no partitions", dc)
	}
	d.mu.Lock()
	seq := d.seq[dc]
	d.seq[dc]++
	d.mu.Unlock()
	cl, err := client.New(client.Config{ID: topology.ClientID(dc, seq),
		Coordinator: topology.ServerID(dc, local[int(seq)%len(local)])})
	if err != nil {
		return nil, nil, err
	}
	node, err := transport.ListenTCP(cl.ID(), "127.0.0.1:0", d.book, cl.Peer())
	if err != nil {
		return nil, nil, err
	}
	cl.Peer().Attach(node)
	d.book.Set(cl.ID(), node.ListenAddr())
	d.mu.Lock()
	d.clients[node] = true
	d.mu.Unlock()
	closeFn := func() {
		cl.Close()
		_ = node.Close()
		d.mu.Lock()
		delete(d.clients, node)
		d.mu.Unlock()
	}
	return cl, closeFn, nil
}

// net sums the counters of every server node and every live client node.
func (d *tcpDeployment) net() netCounters {
	d.mu.Lock()
	nodes := append([]*transport.TCPNode(nil), d.nodes...)
	for n := range d.clients {
		nodes = append(nodes, n)
	}
	d.mu.Unlock()
	out := netCounters{byKind: make(map[wire.Kind]uint64)}
	for _, n := range nodes {
		out.sent += n.MessagesSent()
		out.batches += n.BatchesSent()
		out.batchedEnvs += n.BatchedEnvelopes()
		for k, v := range n.MessagesByKind() {
			out.byKind[k] += v
		}
	}
	return out
}

func (d *tcpDeployment) close() {
	for _, s := range d.srvs {
		s.Stop()
	}
	for _, n := range d.nodes {
		_ = n.Close()
	}
}
