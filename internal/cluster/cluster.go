// Package cluster turns a set of malecd replicas into one simulation
// fabric. A rendezvous-hash ring over the canonical engine key assigns
// every simulation point an owner replica; any node accepts any request
// and forwards non-owned points to their owners over an internal HTTP API,
// falling back to local execution when the owner is unreachable —
// degraded, never down.
//
// Each peer carries one health bit, up. A successful /readyz probe sets
// it; a failed probe or a failed forwarded call clears it, and the next
// probe (one per ProbeInterval) is the half-open check. Route makes one
// call per up candidate in the key's ring preference order, so the walk to
// the next ring successor, and finally local execution, is the retry. The
// MALEC_FAULT_PEER_{DIAL,TIMEOUT,ERR} failpoints fire inside the peer
// client, so that failover ladder is testable without killing processes.
//
// Correctness never depends on routing: results are content-addressed by
// canonical key and the simulator is deterministic, so a point computes
// identical bytes wherever it runs. The cluster only changes *where* work
// happens — which is why campaign exports stay byte-identical across 1
// node, N nodes, and N nodes with one of them killed mid-campaign.
package cluster

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
)

// Options configures a Cluster.
type Options struct {
	// Self is this node's advertised base URL (how peers reach it).
	Self string
	// Peers lists the members' base URLs (static membership). New
	// canonicalizes them like Self and drops empties, duplicates and Self,
	// so every node may be handed the same full member list.
	Peers []string

	// ProbeInterval is the /readyz health-check period (default 1s).
	ProbeInterval time.Duration
	// CallTimeout bounds one forwarded point call end to end (default
	// 60s — a forwarded point is a real simulation, not a metadata RPC).
	CallTimeout time.Duration
}

// probeTimeout bounds one /readyz probe.
const probeTimeout = 2 * time.Second

// Stats is a snapshot of the cluster's routing counters.
type Stats struct {
	// Nodes is the total member count (self included); PeersHealthy is
	// how many remote peers are currently up.
	Nodes        int `json:"nodes"`
	PeersHealthy int `json:"peersHealthy"`
	// Forwarded counts points successfully executed on a peer.
	Forwarded uint64 `json:"forwarded"`
	// ForwardErrors counts failed forwarded calls; a call cut short by the
	// caller's own cancellation is not one.
	ForwardErrors uint64 `json:"forwardErrors"`
	// Failovers counts points whose primary owner could not serve them —
	// they re-homed to a ring successor or fell back to local execution.
	Failovers uint64 `json:"failovers"`
	// Hedges is always zero: forwarded calls are never hedged. The field
	// stays only because perfbench/layers.go reads it.
	Hedges uint64 `json:"-"`
}

// Cluster is one node's view of the fabric: the ring, the peers' health,
// and the forwarding policy. Safe for concurrent use.
type Cluster struct {
	self          string
	probeInterval time.Duration
	ring          *Ring
	client        *Client
	peers         map[string]*peer // by base URL; excludes self
	order         []*peer          // stable iteration for Start and Stats

	forwarded     atomic.Uint64
	forwardErrors atomic.Uint64
	failovers     atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// canonicalURL is the one spelling of a member name: surrounding
// whitespace and trailing slashes removed. Ring ownership hashes these
// names, so every node must spell every member identically.
func canonicalURL(u string) string {
	return strings.TrimRight(strings.TrimSpace(u), "/")
}

// New builds a Cluster over self + peers. Call Start to begin health
// probing; until a peer passes a probe it receives no forwards.
func New(opts Options) *Cluster {
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = time.Second
	}
	if opts.CallTimeout <= 0 {
		opts.CallTimeout = 60 * time.Second
	}
	c := &Cluster{
		self:          canonicalURL(opts.Self),
		probeInterval: opts.ProbeInterval,
		client:        newClient(opts.CallTimeout),
		peers:         make(map[string]*peer, len(opts.Peers)),
		stop:          make(chan struct{}),
	}
	nodes := []string{c.self}
	for _, url := range opts.Peers {
		url = canonicalURL(url)
		if url == "" || url == c.self || c.peers[url] != nil {
			continue
		}
		p := &peer{url: url}
		c.peers[url] = p
		c.order = append(c.order, p)
		nodes = append(nodes, url)
	}
	c.ring = NewRing(nodes)
	return c
}

// Size returns the total member count, self included.
func (c *Cluster) Size() int { return len(c.peers) + 1 }

// Self returns this node's advertised URL.
func (c *Cluster) Self() string { return c.self }

// Ring exposes the ownership ring (tests, diagnostics).
func (c *Cluster) Ring() *Ring { return c.ring }

// Start launches the health-probe loops.
func (c *Cluster) Start() {
	for _, p := range c.order {
		c.wg.Add(1)
		go c.probeLoop(p)
	}
}

// Stop halts probing and waits for the loops to exit. In-flight forwarded
// calls are unaffected (their contexts bound them).
func (c *Cluster) Stop() {
	c.once.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Stats returns a snapshot of the routing counters.
func (c *Cluster) Stats() Stats {
	s := Stats{
		Nodes:         c.Size(),
		Forwarded:     c.forwarded.Load(),
		ForwardErrors: c.forwardErrors.Load(),
		Failovers:     c.failovers.Load(),
	}
	for _, p := range c.order {
		if p.up.Load() {
			s.PeersHealthy++
		}
	}
	return s
}

// Route decides where one simulation point runs. It is the engine's
// remote-execution hook: handled=false means "run it locally" — the
// self-owned case and every failure case alike, because local execution is
// the one dependency-free path that always works. The walk makes one call
// to each up node in the key's ring preference order; a failed call marks
// that peer down and moves on, and reaching self (or exhausting remote
// candidates) falls back to local. An error returns only for the caller's
// own context cancellation.
func (c *Cluster) Route(ctx context.Context, key string, cfg config.Config, benchmark string, instructions int, seed uint64) (cpu.Result, bool, error) {
	if len(c.peers) == 0 {
		return cpu.Result{}, false, nil
	}
	owners := c.ring.Owners(key, len(c.peers)+1)
	if owners[0] == c.self {
		return cpu.Result{}, false, nil
	}
	preq := PointRequest{
		Config:       cfg,
		Benchmark:    benchmark,
		Instructions: instructions,
		Seed:         seed,
		Key:          key,
	}
	for rank, node := range owners {
		if node == c.self {
			break // our turn in the preference order: run locally
		}
		p := c.peers[node]
		if !p.up.Load() {
			continue
		}
		res, err := c.client.RunPoint(ctx, p.url, preq)
		if err == nil {
			c.forwarded.Add(1)
			if rank > 0 {
				c.failovers.Add(1)
			}
			return res, true, nil
		}
		if ctx.Err() != nil {
			// The caller gave up; the peer did nothing wrong.
			return cpu.Result{}, false, ctx.Err()
		}
		c.forwardErrors.Add(1)
		p.up.Store(false)
	}
	// The primary owner is remote and nothing remote served the point:
	// degraded, never down — the caller executes locally.
	c.failovers.Add(1)
	return cpu.Result{}, false, nil
}
