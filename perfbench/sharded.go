package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crystalball/internal/dist"
	"crystalball/internal/mc"
	"crystalball/internal/scenario"
)

// The sharded workload: exhaustive search of paxos (3 nodes, default
// variant) to depth 9 by a coordinator and two shards. The shards connect
// over loopback TCP inside this process with the same handshake shardd
// uses (Hello, then Setup), so the wire codec and the replay of wire paths
// run as they do between processes. Every operation is one
// Coordinator.RunRound on one long-lived session.
const (
	shardedService = "paxos"
	shardedNodes   = 3
	shardedDepth   = 9
	shardedShards  = 2
)

// session is one coordinator and its shards.
type session struct {
	ln     net.Listener
	coord  *dist.Coordinator
	conns  []*tracedConn
	shards sync.WaitGroup
	mu     sync.Mutex
	errs   []error // shard exits other than a clean shutdown
	// tr is the tracer of the round in flight (nil when untraced) and
	// round the id of its sharded.round span; the coordinator's reader
	// goroutines read both.
	tr    atomic.Pointer[tracer]
	round atomic.Int64
}

// openSession starts the shards, accepts and handshakes them, and builds
// the coordinator, as shardd's coordinator mode does.
func openSession(su dist.Setup) (*session, error) {
	g, cfg, err := buildSharded(su)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &session{ln: ln}
	topt := dist.TCPOptions{}
	for i := 0; i < shardedShards; i++ {
		s.shards.Add(1)
		go func(i int) {
			defer s.shards.Done()
			if err := serveShard(ln.Addr().String(), i, topt); err != nil {
				s.mu.Lock()
				s.errs = append(s.errs, fmt.Errorf("shard %d: %w", i, err))
				s.mu.Unlock()
			}
		}(i)
	}
	conns := make([]dist.Conn, shardedShards)
	s.conns = make([]*tracedConn, shardedShards)
	_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(30 * time.Second))
	for joined := 0; joined < shardedShards; joined++ {
		nc, err := ln.Accept()
		if err != nil {
			s.abort(conns)
			return nil, fmt.Errorf("accept: %w", err)
		}
		wire := &countConn{Conn: nc}
		conn := dist.WrapTCP(wire, topt)
		m, err := conn.Recv()
		h, ok := m.(dist.Hello)
		if err != nil || !ok || h.Shard < 0 || h.Shard >= shardedShards || conns[h.Shard] != nil {
			conn.Close()
			s.abort(conns)
			return nil, fmt.Errorf("bad hello %v: %v", m, err)
		}
		if err := conn.Send(su); err != nil {
			conn.Close()
			s.abort(conns)
			return nil, fmt.Errorf("setup shard %d: %w", h.Shard, err)
		}
		tc := &tracedConn{Conn: conn, s: s, wire: wire}
		conns[h.Shard], s.conns[h.Shard] = tc, tc
	}
	s.coord = dist.NewCoordinator(conns, dist.CoordinatorConfig{
		Search:       mc.NewSearch(cfg),
		Root:         g,
		StallTimeout: time.Minute,
	})
	return s, nil
}

// abort closes a half-built session and waits for its shards.
func (s *session) abort(conns []dist.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
	s.ln.Close()
	s.shards.Wait()
}

// close shuts the session down and waits for every shard to exit.
func (s *session) close() error {
	s.coord.Shutdown()
	s.ln.Close()
	s.shards.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.errs...)
}

// wireBytes returns the bytes the coordinator's sockets have moved.
func (s *session) wireBytes() int64 {
	var n int64
	for _, c := range s.conns {
		n += c.wire.read.Load() + c.wire.written.Load()
	}
	return n
}

// serveShard is one shard: dial, say hello, build the scenario from the
// coordinator's Setup and serve rounds until shutdown.
func serveShard(addr string, i int, topt dist.TCPOptions) error {
	conn, err := dist.DialTCP(addr, topt)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Send(dist.Hello{Shard: i, Shards: shardedShards}); err != nil {
		return err
	}
	m, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("waiting for setup: %w", err)
	}
	su, ok := m.(dist.Setup)
	if !ok {
		return fmt.Errorf("expected setup, got %T", m)
	}
	g, cfg, err := buildSharded(su)
	if err != nil {
		return err
	}
	err = dist.RunShard(conn, dist.ShardConfig{
		Index:     i,
		Shards:    shardedShards,
		Search:    cfg,
		Root:      g,
		BatchSize: su.BatchSize,
	})
	if errors.Is(err, dist.ErrClosed) {
		return nil
	}
	return err
}

// buildSharded builds the start state and exhaustive search configuration
// a Setup message describes.
func buildSharded(su dist.Setup) (*mc.GState, mc.Config, error) {
	g, cfg, err := scenario.InitialState(su.Scenario, scenario.Options{
		Nodes:   su.Nodes,
		Fixed:   su.Fixed,
		Variant: su.Variant,
	})
	if err != nil {
		return nil, mc.Config{}, err
	}
	cfg.Mode = mc.Exhaustive
	cfg.Seed = su.Seed
	cfg.ExploreResets = su.Resets
	cfg.ExploreConnBreaks = su.ConnBreaks
	return g, cfg, nil
}

// countConn counts the bytes crossing a socket.
type countConn struct {
	net.Conn
	read, written atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// tracedConn records dist.send and dist.recv spans for the coordinator's
// side of a shard connection while a traced round is in flight.
type tracedConn struct {
	dist.Conn
	s    *session
	wire *countConn
}

func (c *tracedConn) Send(m dist.Msg) error {
	t := c.s.tr.Load()
	if t == nil {
		return c.Conn.Send(m)
	}
	w0 := c.wire.written.Load()
	sp := t.begin("dist.send", c.s.round.Load())
	err := c.Conn.Send(m)
	sp.endBytes(c.wire.written.Load() - w0)
	return err
}

func (c *tracedConn) Recv() (dist.Msg, error) {
	t := c.s.tr.Load()
	if t == nil {
		return c.Conn.Recv()
	}
	sp := t.begin("dist.recv", c.s.round.Load())
	m, err := c.Conn.Recv()
	sp.end()
	return m, err
}

// propSet renders the sorted set of violated property names.
func propSet(vs []mc.Violation) string {
	var names []string
	for _, v := range vs {
		for _, p := range v.Properties {
			if !slices.Contains(names, p) {
				names = append(names, p)
			}
		}
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func runSharded(o opts) (*result, error) {
	su := dist.Setup{
		Scenario: shardedService,
		Nodes:    shardedNodes,
		Seed:     o.seed,
		Workers:  1,
	}
	sc, ok := scenario.Lookup(shardedService)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %s", shardedService)
	}
	su.Resets, su.ConnBreaks = sc.Faults.ExploreResets, sc.Faults.ExploreConnBreaks

	var s *session
	setup, err := timeSetup(setupReps, func() error {
		var err error
		s, err = openSession(su)
		return err
	}, func() error {
		err := s.close()
		s = nil
		return err
	})
	if err != nil {
		return nil, err
	}

	// The serial engine's answer on the same input is what every round
	// must reproduce.
	g, cfg, err := buildSharded(su)
	if err != nil {
		s.close()
		return nil, err
	}
	cfg.Budget = mc.Budget{Depth: shardedDepth, Workers: runtime.GOMAXPROCS(0)}
	serialSearch := mc.NewSearch(cfg)
	serial := serialSearch.Run(g)
	wantProps := propSet(serial.Violations)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	res := &result{correct: true, layer: make(map[string]float64)}
	budget := mc.Budget{Depth: shardedDepth, Wall: time.Minute, Workers: su.Workers}
	var walls, rates, cpuPerSim, wire, recvWait []float64
	var traced []*dist.Result
	peakMB, overhead, err := loop(o, tr, 0, func(i int, t *tracer) (float64, error) {
		s.tr.Store(t)
		root := t.begin("sharded.round", 0)
		s.round.Store(root.id)
		w0 := s.wireBytes()
		cpu0, t0 := cpuTime(), time.Now()
		r, err := s.coord.RunRound(budget, false)
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		root.end()
		s.tr.Store(nil)

		res.attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "sharded: round %d: %v\n", i, err)
			res.failed++
			res.correct = false
			return 0, errStop
		}
		if rec := r.Recovery; rec.Retries > 0 || len(rec.Deaths) > 0 || rec.SerialFallback {
			fmt.Fprintf(os.Stderr, "sharded: round %d recovered: %s\n", i, rec)
			res.failed++
		}
		if got := propSet(r.Checker.Violations); r.Checker.StatesExplored != serial.StatesExplored || got != wantProps {
			fmt.Fprintf(os.Stderr, "sharded: round %d claimed %d states violating {%s}; serial claims %d violating {%s}\n",
				i, r.Checker.StatesExplored, got, serial.StatesExplored, wantProps)
			res.correct = false
		}
		states := float64(r.Checker.StatesExplored)
		walls = append(walls, wall.Seconds())
		rates = append(rates, states/wall.Seconds())
		cpuPerSim = append(cpuPerSim, cpu.Seconds()/(states*perStateCost.Seconds()))
		if t != nil {
			traced = append(traced, r)
			wire = append(wire, float64(s.wireBytes()-w0))
			end := root.start.Sub(t.t0) + wall
			recvWait = append(recvWait, overlap(t.all(), "dist.recv", int64(root.start.Sub(t.t0)), int64(end)).Seconds()/shardedShards)
			probe := t.begin("probe", 0)
			p := newProber(t, probe.id, serialSearch, o.seed+int64(i))
			for w := 0; w < probeWalks; w++ {
				if err := p.walk(g, probeSteps); err != nil {
					return 0, err
				}
			}
			probe.end()
		}
		return wall.Seconds(), nil
	})
	if cerr := s.close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	res.e2e = map[string]float64{
		"setup_s":               median(setup),
		"ttfv_s":                median(walls),
		"states_per_s":          median(rates),
		"peak_rss_mb":           peakMB,
		"host_cpu_per_sim_s":    median(cpuPerSim),
		"predict_latency_p50_s": median(walls),
		"predict_latency_p99_s": tail(walls, 99),
	}
	if o.trace {
		distLayers(traced, tr, res.layer)
		res.layer["dist.wire_bytes"] = mean(wire)
		res.layer["dist.wire_bytes_per_state"] = ratio(res.layer["dist.wire_bytes"], res.layer["dist.forwarded"])
		res.layer["dist.recv_wait_s"] = mean(recvWait)
		probeLayers(tr, res.layer)
		res.layer["trace.overhead_frac"] = overhead
		if err := tr.writeJSONL(traceFile(o)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// distLayers fills the dist and mc metrics with their means over the
// traced rounds.
func distLayers(rs []*dist.Result, tr *tracer, layer map[string]float64) {
	avg := func(f func(r *dist.Result) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return mean(xs)
	}
	checker := make([]*mc.Result, len(rs))
	for i, r := range rs {
		checker[i] = &r.Checker
	}
	mcLayers(checker, layer)
	layer["dist.round_s"] = median(tr.durations("sharded.round")) / 1e9
	layer["dist.forwarded"] = avg(func(r *dist.Result) float64 { return float64(r.Stats.StatesForwarded) })
	layer["dist.received"] = avg(func(r *dist.Result) float64 { return float64(r.Stats.StatesReceived) })
	layer["dist.remote_deduped"] = avg(func(r *dist.Result) float64 { return float64(r.Stats.RemoteDeduped) })
	layer["dist.dedup_ratio"] = ratio(layer["dist.remote_deduped"], layer["dist.received"])
	layer["dist.batch_flushes"] = avg(func(r *dist.Result) float64 { return float64(r.Stats.BatchFlushes) })
	layer["dist.states_per_batch"] = ratio(layer["dist.forwarded"], layer["dist.batch_flushes"])
	layer["dist.shard_transitions"] = avg(func(r *dist.Result) float64 {
		var n int64
		for _, sr := range r.PerShard {
			n += sr.Transitions
		}
		return float64(n)
	})
	layer["dist.send_us_p50"] = median(tr.durations("dist.send")) / 1e3
	layer["dist.retries"] = avg(func(r *dist.Result) float64 { return float64(r.Recovery.Retries) })
	layer["dist.deaths"] = avg(func(r *dist.Result) float64 { return float64(len(r.Recovery.Deaths)) })
}
