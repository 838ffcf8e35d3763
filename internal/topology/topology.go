// Package topology generates Internet-like router topologies and derives
// end-to-end path characteristics between attached participants.
//
// It substitutes for the evaluation substrate in the CrystalBall paper: a
// 5,000-node INET topology (power-law degree distribution) annotated with
// bandwidth, fed to a ModelNet emulator. We reproduce the same knobs the
// paper reports: transit-transit links at 100 Mbps, access links at
// 5 Mbps inbound / 1 Mbps outbound, per-link random drop probability chosen
// uniformly from [0.001, 0.005], and participants attached to one-degree
// stub nodes. Latencies come from the generator; the paper reports an
// average network RTT of 130 ms, which the default latency ranges below
// approximate.
package topology

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Config controls topology generation.
type Config struct {
	// Routers is the number of router nodes (paper: 5000).
	Routers int
	// ExtraLinksPerRouter adds preferential-attachment links beyond the
	// spanning tree, producing a power-law degree distribution.
	ExtraLinksPerRouter float64
	// TransitBandwidthBps is the capacity of router-router links
	// (paper: 100 Mbps).
	TransitBandwidthBps float64
	// AccessInBps and AccessOutBps are client access-link capacities
	// (paper: 5 Mbps / 1 Mbps).
	AccessInBps  float64
	AccessOutBps float64
	// MinLinkLatency and MaxLinkLatency bound per-link propagation delay.
	MinLinkLatency time.Duration
	MaxLinkLatency time.Duration
	// MinLossProb and MaxLossProb bound per-link drop probability
	// (paper: [0.001, 0.005], emulating cross traffic).
	MinLossProb float64
	MaxLossProb float64
}

// DefaultConfig mirrors the paper's evaluation setup, scaled by routers.
func DefaultConfig(routers int) Config {
	return Config{
		Routers:             routers,
		ExtraLinksPerRouter: 0.6,
		TransitBandwidthBps: 100e6,
		AccessInBps:         5e6,
		AccessOutBps:        1e6,
		MinLinkLatency:      2 * time.Millisecond,
		MaxLinkLatency:      18 * time.Millisecond,
		MinLossProb:         0.001,
		MaxLossProb:         0.005,
	}
}

type link struct {
	to      int
	latency time.Duration
	loss    float64
	bwBps   float64
}

// Topology is a generated router graph with participants attached to stubs.
type Topology struct {
	cfg     Config
	adj     [][]link
	degree  []int
	stubs   []int // one-degree routers eligible for client attachment
	clients []int // router each participant is attached to
}

// Path describes the end-to-end characteristics between two participants.
type Path struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Loss is the end-to-end drop probability (1 - prod(1-p_link)).
	Loss float64
	// BandwidthBps is the bottleneck capacity along the path.
	BandwidthBps float64
}

// Generate builds a preferential-attachment router graph: node i>0 links to
// an existing node chosen with probability proportional to degree (yielding
// the power-law degree distribution INET preserves), then extra links are
// added the same way.
func Generate(cfg Config, rng *rand.Rand) *Topology {
	if cfg.Routers < 2 {
		cfg.Routers = 2
	}
	t := &Topology{
		cfg:    cfg,
		adj:    make([][]link, cfg.Routers),
		degree: make([]int, cfg.Routers),
	}
	// endpoints holds one entry per link endpoint, so a uniform pick over
	// it is a degree-proportional pick over routers.
	endpoints := make([]int, 0, cfg.Routers*3)
	addLink := func(a, b int) {
		lat := cfg.MinLinkLatency + time.Duration(rng.Int63n(int64(cfg.MaxLinkLatency-cfg.MinLinkLatency)+1))
		loss := cfg.MinLossProb + rng.Float64()*(cfg.MaxLossProb-cfg.MinLossProb)
		t.adj[a] = append(t.adj[a], link{to: b, latency: lat, loss: loss, bwBps: cfg.TransitBandwidthBps})
		t.adj[b] = append(t.adj[b], link{to: a, latency: lat, loss: loss, bwBps: cfg.TransitBandwidthBps})
		t.degree[a]++
		t.degree[b]++
		endpoints = append(endpoints, a, b)
	}
	addLink(0, 1)
	for i := 2; i < cfg.Routers; i++ {
		target := endpoints[rng.Intn(len(endpoints))]
		addLink(i, target)
	}
	extra := int(float64(cfg.Routers) * cfg.ExtraLinksPerRouter)
	for i := 0; i < extra; i++ {
		a := endpoints[rng.Intn(len(endpoints))]
		b := endpoints[rng.Intn(len(endpoints))]
		if a != b {
			addLink(a, b)
		}
	}
	for r := 0; r < cfg.Routers; r++ {
		if t.degree[r] == 1 {
			t.stubs = append(t.stubs, r)
		}
	}
	if len(t.stubs) == 0 { // degenerate tiny graphs
		t.stubs = append(t.stubs, cfg.Routers-1)
	}
	return t
}

// AttachClients assigns n participants to randomly chosen one-degree stub
// routers (paper: "randomly assign participants to act as clients connected
// to one-degree stub nodes"). Multiple participants may share a stub.
func (t *Topology) AttachClients(n int, rng *rand.Rand) {
	t.clients = make([]int, n)
	for i := range t.clients {
		t.clients[i] = t.stubs[rng.Intn(len(t.stubs))]
	}
}

// Routers reports the number of router nodes.
func (t *Topology) Routers() int { return len(t.adj) }

// PathBetween computes the end-to-end path between participants a and b:
// the latency-shortest router path plus both access links. It is
// deterministic for a fixed topology.
func (t *Topology) PathBetween(a, b int) (Path, error) {
	if a < 0 || a >= len(t.clients) || b < 0 || b >= len(t.clients) {
		return Path{}, fmt.Errorf("topology: participant out of range (%d, %d)", a, b)
	}
	if a == b {
		return Path{Latency: 100 * time.Microsecond, Loss: 0, BandwidthBps: t.cfg.AccessOutBps}, nil
	}
	ra, rb := t.clients[a], t.clients[b]
	accessLat := 2 * time.Millisecond // last-mile delay, both ends
	if ra == rb {
		return Path{
			Latency:      accessLat,
			Loss:         0.001,
			BandwidthBps: minf(t.cfg.AccessOutBps, t.cfg.AccessInBps),
		}, nil
	}
	lat, loss, bw := t.dijkstra(ra, rb)
	return Path{
		Latency:      lat + accessLat,
		Loss:         1 - (1-loss)*0.999, // access links contribute a little loss
		BandwidthBps: minf(bw, minf(t.cfg.AccessOutBps, t.cfg.AccessInBps)),
	}, nil
}

// AllPairs computes the path matrix among all participants. For n
// participants it runs n Dijkstra passes over the router graph.
func (t *Topology) AllPairs() [][]Path {
	n := len(t.clients)
	out := make([][]Path, n)
	for i := range out {
		out[i] = make([]Path, n)
		for j := range out[i] {
			p, err := t.PathBetween(i, j)
			if err != nil {
				panic(err) // indices are in range by construction
			}
			out[i][j] = p
		}
	}
	return out
}

type pqItem struct {
	router int
	dist   time.Duration
	index  int
}

type pq []*pqItem

func (p pq) Len() int           { return len(p) }
func (p pq) Less(i, j int) bool { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)      { p[i], p[j] = p[j], p[i]; p[i].index = i; p[j].index = j }
func (p *pq) Push(x any)        { it := x.(*pqItem); it.index = len(*p); *p = append(*p, it) }
func (p *pq) Pop() any          { old := *p; n := len(old); it := old[n-1]; *p = old[:n-1]; return it }

// dijkstra returns (latency, loss, bottleneck bandwidth) of the
// latency-shortest path from src to dst.
func (t *Topology) dijkstra(src, dst int) (time.Duration, float64, float64) {
	const inf = time.Duration(1<<62 - 1)
	dist := make([]time.Duration, len(t.adj))
	surv := make([]float64, len(t.adj)) // survival probability along best path
	bw := make([]float64, len(t.adj))
	done := make([]bool, len(t.adj))
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	surv[src] = 1
	bw[src] = 1e18
	q := &pq{{router: src, dist: 0}}
	heap.Init(q)
	for q.Len() > 0 {
		it := heap.Pop(q).(*pqItem)
		u := it.router
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, l := range t.adj[u] {
			nd := dist[u] + l.latency
			if nd < dist[l.to] {
				dist[l.to] = nd
				surv[l.to] = surv[u] * (1 - l.loss)
				bw[l.to] = minf(bw[u], l.bwBps)
				heap.Push(q, &pqItem{router: l.to, dist: nd})
			}
		}
	}
	if dist[dst] == inf {
		// Unreachable should not happen (graph is connected by
		// construction) but fall back to a conservative default.
		return 150 * time.Millisecond, 0.01, t.cfg.AccessOutBps
	}
	return dist[dst], 1 - surv[dst], bw[dst]
}

// MeanRTT estimates the average round-trip time over all participant pairs;
// the paper reports 130 ms for its topology.
func (t *Topology) MeanRTT() time.Duration {
	n := len(t.clients)
	if n < 2 {
		return 0
	}
	var total time.Duration
	var count int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p, err := t.PathBetween(i, j)
			if err != nil {
				continue
			}
			total += 2 * p.Latency
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / time.Duration(count)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
