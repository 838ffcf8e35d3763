// Package crystalball's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (scaled down so `go test
// -bench=.` completes in minutes; cmd/experiments regenerates the
// full-scale tables), plus ablation benchmarks for the design choices
// DESIGN.md section 7 calls out.
package crystalball_test

import (
	"fmt"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"crystalball/internal/dist"
	"crystalball/internal/experiments"
	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/runtime"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
	"crystalball/internal/services/randtree"
	"crystalball/internal/simnet"
	"crystalball/internal/sm"
	"crystalball/internal/snapshot"
)

// BenchmarkTable1BugsFound runs the deep-online-debugging hunt (scaled).
func BenchmarkTable1BugsFound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := experiments.Table1(experiments.Table1Config{
			Seed: int64(i + 1), Nodes: 8, Duration: 3 * time.Minute, MCStates: 4000,
		})
		var distinct int
		for _, r := range results {
			distinct += len(r.Distinct)
		}
		b.ReportMetric(float64(distinct), "distinct-bugs")
	}
}

// BenchmarkFig12ExhaustiveDepth measures the exhaustive-search depth sweep.
func BenchmarkFig12ExhaustiveDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig12Exhaustive(experiments.Fig12Config{
			Seed: 1, Nodes: 5, MaxDepth: 5, MaxStates: 500000,
		})
		b.ReportMetric(float64(pts[len(pts)-1].States), "states-at-max-depth")
	}
}

// BenchmarkFig15SearchMemory measures consequence-prediction memory growth.
func BenchmarkFig15SearchMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig15Memory(experiments.Fig15Config{
			Seed: 1, MaxDepth: 5, MaxStates: 500000,
		})
		last := pts[len(pts)-1]
		b.ReportMetric(float64(last.MemBytes), "peak-bytes")
		b.ReportMetric(last.PerStateByte, "bytes/state")
	}
}

// BenchmarkDepthComparison measures the section 5.3 comparison.
func BenchmarkDepthComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.DepthComparison(1, time.Second, []int{5}, 0)
		for _, r := range rows {
			if r.Start == "live-snapshot" && r.Mode == "consequence" {
				b.ReportMetric(float64(r.States), "cp-states-to-violation")
			}
		}
	}
}

// BenchmarkRandTreeSteering runs one protected churn window (section 5.4.1).
func BenchmarkRandTreeSteering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RandTreeSteering(experiments.SteeringConfig{
			Seed: int64(i + 1), Nodes: 10, Duration: 5 * time.Minute,
			ChurnGap: 45 * time.Second, MCStates: 4000,
		}, experiments.SteeringAndISC)
		b.ReportMetric(float64(res.InconsistentStates), "inconsistent-states")
		b.ReportMetric(float64(res.FiltersInstalled), "filters")
	}
}

// BenchmarkFig14PaxosSteering runs the staged Paxos scenarios (scaled).
func BenchmarkFig14PaxosSteering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := experiments.Fig14Paxos(experiments.Fig14Config{
			Seed: int64(i + 1), Runs: 4, MaxGap: 20 * time.Second, MCStates: 8000,
		})
		var avoided, violated int
		for _, r := range results {
			avoided += r.Steering + r.ISC
			violated += r.Violated
		}
		b.ReportMetric(float64(avoided), "avoided")
		b.ReportMetric(float64(violated), "violated")
	}
}

// BenchmarkFig17BulletOverhead measures the Bullet' download with and
// without CrystalBall.
func BenchmarkFig17BulletOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig17Bullet(experiments.Fig17Config{
			Seed: int64(i + 1), Nodes: 5, Blocks: 12, BlockSize: 32 << 10,
			Deadline: 8 * time.Minute,
		})
		b.ReportMetric(100*r.MeanSlowdown, "slowdown-%")
	}
}

// BenchmarkCheckpointSizes measures section 5.5's checkpoint costs.
func BenchmarkCheckpointSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Overhead(experiments.OverheadConfig{
			Seed: int64(i + 1), Nodes: 8, Duration: 40 * time.Second,
		})
		for _, r := range rows {
			if r.System == "RandTree" {
				b.ReportMetric(r.MeanCheckpointRaw, "randtree-ckpt-bytes")
			}
		}
	}
}

// --- micro-benchmarks of the core algorithms --------------------------------

// BenchmarkConsequencePrediction measures raw checker throughput on the
// formed-tree snapshot with faults enabled.
func BenchmarkConsequencePrediction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := searchFormedTree(mc.Consequence, 2000, 1)
		if res.StatesExplored == 0 {
			b.Fatal("no states explored")
		}
	}
}

// BenchmarkExhaustiveSearch is the baseline for the same start state.
func BenchmarkExhaustiveSearch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := searchFormedTree(mc.Exhaustive, 2000, 1)
		if res.StatesExplored == 0 {
			b.Fatal("no states explored")
		}
	}
}

// BenchmarkParallelSearch compares worker-pool exploration throughput
// across worker counts for both breadth-first strategies on the
// work-stealing per-worker deques (scaling needs physical cores; states/sec
// is reported so CI hardware differences are visible). The "steal" name
// segment keeps entry names stable against the recorded BENCH_10.json.
func BenchmarkParallelSearch(b *testing.B) {
	const states = 20000
	for _, mode := range []mc.Mode{mc.Exhaustive, mc.Consequence} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/steal/workers-%d", mode, workers), func(b *testing.B) {
				b.ReportAllocs()
				var explored, nanos int64
				for i := 0; i < b.N; i++ {
					res := searchFormedTree(mode, states, workers)
					if res.StatesExplored == 0 {
						b.Fatal("no states explored")
					}
					explored += int64(res.StatesExplored)
					nanos += res.Elapsed.Nanoseconds()
				}
				b.ReportMetric(float64(explored)/(float64(nanos)/1e9), "states/sec")
			})
		}
	}
}

func searchFormedTree(mode mc.Mode, states, workers int) *mc.Result {
	factory := randtree.New(randtree.Config{Bootstrap: []sm.NodeID{1}, MaxChildren: 3})
	g := mc.NewGState()
	for i := 1; i <= 5; i++ {
		g.AddNode(sm.NodeID(i), factory(sm.NodeID(i)), nil)
	}
	s := mc.NewSearch(mc.Config{
		Props:         randtree.Properties,
		Factory:       factory,
		Mode:          mode,
		Budget:        mc.Budget{Workers: workers, States: states},
		ExploreResets: true,
	})
	return s.Run(g)
}

// BenchmarkReducedSearch is the partial-order reduction's coverage bench:
// paxos and chord, searched with reduction off and on at the same depth. The reduced search claims the
// identical state and distinct-local-state sets (the reduction oracle pins
// this), so the coverage-per-budget gain is the locals/Mtrans ratio between
// adjacent reduce-off/reduce-on entries — ≥2× on both scenarios. Chord runs
// consequence prediction from a warmed (post-join-traffic) state, the live
// controller's actual starting point; cold chord consequence is degenerate
// (a handful of states) and cold chord exhaustive saturates near 1.6×.
func BenchmarkReducedSearch(b *testing.B) {
	for _, tc := range []struct {
		service                 string
		nodes, warmSteps, depth int
	}{
		{"paxos", 5, 0, 8},
		{"chord", 7, 4, 12},
	} {
		g, cfg, err := scenario.InitialState(tc.service, scenario.Options{Nodes: tc.nodes})
		if err != nil {
			b.Fatal(err)
		}
		cfg.Mode = mc.Consequence
		cfg.Budget.Depth = tc.depth
		cfg.Seed = 7
		if tc.warmSteps > 0 {
			g = warmPrefix(b, mc.NewSearch(cfg), g, tc.warmSteps)
		}
		for _, reduce := range []bool{false, true} {
			name := fmt.Sprintf("%s/reduce-off", tc.service)
			if reduce {
				name = fmt.Sprintf("%s/reduce-on", tc.service)
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var trans, locals, n int64
				for i := 0; i < b.N; i++ {
					c := cfg
					c.Reduce = reduce
					res := mc.NewSearch(c).Run(g)
					if res.StatesExplored == 0 {
						b.Fatal("no states explored")
					}
					trans += int64(res.Transitions)
					locals += int64(res.DistinctLocalStates)
					n++
				}
				b.ReportMetric(float64(trans)/float64(n), "transitions")
				b.ReportMetric(float64(locals)/float64(n), "distinct-locals")
				b.ReportMetric(1e6*float64(locals)/float64(trans), "locals/Mtrans")
			})
		}
	}
}

// BenchmarkShardedSearch measures the distributed sharded search's
// aggregate throughput at 1, 2 and 4 shards (one expansion worker per
// shard; shards are goroutines, so the scaling claim is shards-as-cores
// plus the overlap of expansion with batch exchange). The claimed state
// set is identical to the single-process engine's at every shard count
// (the dist differential oracle pins this), so states/sec compares
// like-for-like work. Two measurement choices reduce scheduler noise:
// GOGC is raised for the benchmark's duration (the search is
// allocation-bound, and at the default the concurrent collector absorbs
// any spare core, hiding mutator scaling), and the reported states/sec
// is the best single round rather than the mean (shared-box load spikes
// inflate the mean; peak throughput is the stable estimator — run with
// -benchtime 8x or more to give it samples).
func BenchmarkShardedSearch(b *testing.B) {
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	for _, tc := range []struct {
		service      string
		nodes, depth int
	}{
		{"chord", 4, 9},
		{"paxos", 3, 7},
	} {
		g, cfg, err := scenario.InitialState(tc.service, scenario.Options{Nodes: tc.nodes})
		if err != nil {
			b.Fatal(err)
		}
		cfg.Mode = mc.Exhaustive
		cfg.Seed = 7
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/shards-%d", tc.service, shards), func(b *testing.B) {
				b.ReportAllocs()
				var best float64
				for i := 0; i < b.N; i++ {
					res, err := dist.Local(dist.LocalConfig{
						Shards: shards,
						Search: cfg,
						Root:   g,
						Budget: mc.Budget{Depth: tc.depth, Workers: 1},
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Checker.StatesExplored == 0 {
						b.Fatal("no states explored")
					}
					rate := float64(res.Checker.StatesExplored) / res.Checker.Elapsed.Seconds()
					if rate > best {
						best = rate
					}
				}
				b.ReportMetric(best, "states/sec")
			})
		}
	}
}

// warmPrefix applies a deterministic event prefix to g: each node's first
// application call in node order, then steps rounds of delivering the first
// enabled network event — enough join traffic that consequence prediction
// has live protocol state to look ahead from.
func warmPrefix(b *testing.B, s *mc.Search, g *mc.GState, steps int) *mc.GState {
	b.Helper()
	_, internal := s.EnabledEvents(g)
	ids := make([]int, 0, len(internal))
	for id := range internal {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		for _, ev := range internal[sm.NodeID(id)] {
			if _, isApp := ev.(sm.AppEvent); !isApp {
				continue
			}
			if next := s.ApplyEvent(g, ev); next != nil {
				g = next
			}
			break
		}
	}
	for i := 0; i < steps; i++ {
		net, _ := s.EnabledEvents(g)
		if len(net) == 0 {
			break
		}
		if next := s.ApplyEvent(g, net[0]); next != nil {
			g = next
		}
	}
	return g
}

// BenchmarkSnapshotCollection measures a full neighborhood snapshot round.
func BenchmarkSnapshotCollection(b *testing.B) {
	d, err := scenario.Deploy("chord", scenario.DeployOptions{
		Seed:        1,
		Service:     scenario.Options{Nodes: 10, Fixed: true},
		Path:        simnet.UniformPath{Latency: 5 * time.Millisecond, BwBps: 1e9},
		Control:     scenario.Bare,
		Checkpoints: true,
		Workload:    true,
	})
	if err != nil {
		b.Fatal(err)
	}
	d.Sim.RunFor(30 * time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		d.Mgrs[0].Collect(d.Nodes[0].Service().Neighbors(), func(*snapshot.Snapshot) { done = true })
		d.Sim.RunFor(3 * time.Second)
		if !done {
			b.Fatal("collection did not finish")
		}
	}
}

// --- ablations (DESIGN.md section 7) ----------------------------------------

// BenchmarkAblationLocalPruning quantifies the localExplored rule: states
// needed to find the Figure 2-class violation from a live snapshot with
// and without the pruning.
func BenchmarkAblationLocalPruning(b *testing.B) {
	for _, mode := range []mc.Mode{mc.Consequence, mc.Exhaustive} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := experiments.DepthComparison(1, 5*time.Second, []int{7}, 0)
				for _, r := range rows {
					if r.Start == "live-snapshot" && r.Mode == mode.String() {
						b.ReportMetric(float64(r.States), "states-to-violation")
						b.ReportMetric(float64(r.Elapsed.Microseconds()), "us-to-violation")
					}
				}
			}
		})
	}
}

// BenchmarkAblationFilterSafety measures steering with and without the
// filter-safety recheck.
func BenchmarkAblationFilterSafety(b *testing.B) {
	for _, check := range []bool{true, false} {
		name := "with-recheck"
		if !check {
			name = "without-recheck"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := steeringArm(int64(i+1), check, true)
				b.ReportMetric(float64(res.FiltersInstalled), "filters")
				b.ReportMetric(float64(res.InconsistentStates), "inconsistent-states")
			}
		})
	}
}

// BenchmarkAblationCompression measures checkpoint bytes with and without
// LZW compression + duplicate suppression.
func BenchmarkAblationCompression(b *testing.B) {
	for _, compress := range []bool{true, false} {
		name := "lzw"
		if !compress {
			name = "raw"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snapCfg := snapshot.DefaultConfig()
				snapCfg.Compress = compress
				d, err := scenario.Deploy("chord", scenario.DeployOptions{
					Seed:        int64(i + 1),
					Service:     scenario.Options{Nodes: 8, Fixed: true},
					Path:        simnet.UniformPath{Latency: 5 * time.Millisecond, BwBps: 1e9},
					Control:     scenario.Bare,
					Snapshot:    &snapCfg,
					Checkpoints: true,
					Workload:    true,
				})
				if err != nil {
					b.Fatal(err)
				}
				d.Sim.RunFor(15 * time.Second)
				for k := 0; k < 5; k++ {
					d.Mgrs[0].Collect(d.Nodes[0].Service().Neighbors(), func(*snapshot.Snapshot) {})
					d.Sim.RunFor(3 * time.Second)
				}
				b.ReportMetric(float64(d.Net.TotalBytesOut(simnet.KindCheckpoint)), "ckpt-bytes")
			}
		})
	}
}

// steeringArm runs a short protected churn window for the ablations. The
// rarely-used controller knobs (filter-safety recheck, path replay) are
// tweaked on a scenario-derived controller config and installed verbatim.
func steeringArm(seed int64, checkFilterSafety, replay bool) struct {
	FiltersInstalled   int64
	InconsistentStates int64
} {
	sc := scenario.MustLookup("randtree")
	opts := scenario.DeployOptions{
		Seed:     seed,
		Service:  scenario.Options{Nodes: 8},
		Control:  scenario.Steering,
		MCStates: 3000,
	}
	ctrl, err := sc.ControllerConfig(opts)
	if err != nil {
		panic(err)
	}
	ctrl.CheckFilterSafety = checkFilterSafety
	ctrl.ReplayPaths = replay
	opts.Controller = &ctrl
	d, err := sc.Deploy(opts)
	if err != nil {
		panic(err)
	}

	var out struct {
		FiltersInstalled   int64
		InconsistentStates int64
	}
	gt := props.NewView() // refilled per event; the simulator is single-threaded
	for _, node := range d.Nodes {
		node.OnEvent = func(sm.Event) {
			d.FillView(gt)
			if !randtree.Properties.Holds(gt) {
				out.InconsistentStates++
			}
		}
	}
	d.StartWorkload()
	d.StartChurn(40 * time.Second)
	d.Sim.RunFor(4 * time.Minute)
	for _, c := range d.Ctrls {
		out.FiltersInstalled += c.Stats.FiltersInstalled
	}
	return out
}

// BenchmarkAdaptiveRounds measures the budget-policy round-trip the
// controller pays per model-checking round: one Plan from the round info
// plus one Observe of the report. The policy contract requires both to be
// allocation-free (internal/mc's TestPolicyPlanObserveAllocFree pins 0
// allocs); this benchmark records the time floor so policy logic never
// creeps into round-scheduling cost.
func BenchmarkAdaptiveRounds(b *testing.B) {
	b.ReportAllocs()
	pol := &mc.AdaptivePolicy{
		Base:       mc.Budget{States: 20000, Workers: 2, Violations: 8},
		MaxWorkers: 8,
	}
	info := mc.RoundInfo{SnapshotBytes: 4096, SnapshotNodes: 12, Interval: 10 * time.Second}
	for i := 0; i < b.N; i++ {
		info.Round = i + 1
		plan := pol.Plan(info)
		pol.Observe(mc.RoundReport{
			Budget:  plan,
			States:  plan.States,
			Elapsed: time.Duration(plan.States) * 300 * time.Microsecond,
		})
	}
}

// BenchmarkStateHash measures global-state hashing, the checker's hottest
// primitive. The fingerprint is a commutative sum of per-component hashes
// maintained incrementally through every successor constructor, so:
//
//   - lookup: Hash on an existing state is an O(1) read;
//   - successor: apply + hash of a successor pays only O(delta) — the one
//     re-encoded node and the touched messages — instead of re-encoding
//     all 9 nodes;
//   - full-recompute: the from-scratch oracle (FullHash), which is what
//     every successor hash used to cost before the incremental scheme.
func BenchmarkStateHash(b *testing.B) {
	factory, g := formedTree(9)
	s := mc.NewSearch(mc.Config{
		Props:   randtree.Properties,
		Factory: factory,
	})
	ev := sm.TimerEvent{At: 5, Timer: randtree.TimerRecovery}
	succ := s.ApplyEvent(g, ev)
	if succ == nil {
		b.Fatal("timer event not applicable")
	}

	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g.Hash() == 0 {
				b.Fatal("zero hash")
			}
		}
	})
	b.Run("successor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			next := s.ApplyEvent(g, ev)
			if next == nil || next.Hash() == 0 {
				b.Fatal("bad successor")
			}
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if succ.FullHash() == 0 {
				b.Fatal("zero hash")
			}
		}
	})
}

// BenchmarkGlobalProps measures per-state cross-node property evaluation,
// the cost the global property engine adds to every explored state: refill
// the engine's pooled view from the state (the freelist path — NodeViews
// are recycled, not reallocated), then evaluate the scenario's GlobalSet.
// Chord exercises the ring cycle count over a warmed topology; the CRDT
// scenarios exercise the pairwise convergence compare over warmed replica
// state. AppendViolated(nil, ...) on a holding set returns nil, so a clean
// state — the overwhelming case — costs zero allocations beyond the view
// refill.
func BenchmarkGlobalProps(b *testing.B) {
	cases := []struct {
		service string
		nodes   int
		warm    int
	}{
		{"chord", 7, 4},
		{"gcounter", 5, 4},
		{"orset", 5, 4},
		{"lwwmap", 5, 4},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.service, func(b *testing.B) {
			g, cfg, err := scenario.InitialState(tc.service, scenario.Options{Nodes: tc.nodes})
			if err != nil {
				b.Fatal(err)
			}
			if len(cfg.GlobalProps) == 0 {
				b.Fatal("scenario has no global properties")
			}
			g = warmPrefix(b, mc.NewSearch(cfg), g, tc.warm)
			v := props.NewView()
			var violated int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Reset()
				g.FillView(v)
				violated += len(cfg.GlobalProps.AppendViolated(nil, props.Global(v)))
			}
			b.ReportMetric(float64(violated)/float64(b.N), "violated/op")
		})
	}
}

// BenchmarkCheckpointEncode measures full-state encoding (checkpoint
// creation).
func BenchmarkCheckpointEncode(b *testing.B) {
	factory := randtree.New(randtree.Config{Bootstrap: []sm.NodeID{1}})
	t := factory(1).(*randtree.Tree)
	t.Joined = true
	t.IsRoot = true
	t.Root = 1
	for i := 2; i <= 20; i++ {
		t.Children[sm.NodeID(i)] = true
		t.Peers[sm.NodeID(i)] = true
	}
	timers := map[sm.TimerID]bool{randtree.TimerRecovery: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(sm.EncodeFullState(t, timers)) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

func formedTree(n int) (sm.Factory, *mc.GState) {
	factory := randtree.New(randtree.Config{Bootstrap: []sm.NodeID{1}, MaxChildren: 3})
	g := mc.NewGState()
	for i := 1; i <= n; i++ {
		id := sm.NodeID(i)
		t := factory(id).(*randtree.Tree)
		t.Joined = true
		t.Root = 1
		t.IsRoot = i == 1
		if i > 1 {
			t.Parent = sm.NodeID(i / 2)
		} else {
			t.Parent = sm.NoNode
		}
		g.AddNode(id, t, map[sm.TimerID]bool{randtree.TimerRecovery: true})
	}
	return factory, g
}

// BenchmarkISCSpeculation measures the immediate safety check's per-event
// cost (clone + speculative handler + property check).
func BenchmarkISCSpeculation(b *testing.B) {
	d, err := scenario.Deploy("randtree", scenario.DeployOptions{
		Seed:     1,
		Service:  scenario.Options{Nodes: 2},
		Path:     simnet.UniformPath{Latency: time.Millisecond, BwBps: 1e9},
		Control:  scenario.Bare,
		Workload: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	n1 := d.Nodes[0]
	d.Sim.RunFor(10 * time.Second)
	n1.EnableISC(randtree.Properties, func() *props.View { return props.NewView() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Drive a message through the ISC path.
		d.Net.Send(2, 1, runtime.Envelope{Msg: randtree.Probe{}}, 12, simnet.KindService)
		d.Sim.RunFor(10 * time.Millisecond)
	}
	if n1.Stats.ISCChecks == 0 {
		b.Fatal("ISC never engaged")
	}
}
