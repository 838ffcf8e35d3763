// Real-service checker tests live in the external test package: the
// service packages register themselves with internal/scenario, which
// imports mc, so importing them from mc's internal test package would be
// an import cycle.
package mc_test

import (
	"reflect"
	"sort"
	"testing"

	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/services/chord"
	"crystalball/internal/services/crdt"
	"crystalball/internal/services/paxos"
	"crystalball/internal/services/randtree"
	"crystalball/internal/sm"
)

// distinctSignatures returns the sorted violation-signature set of a result
// (Result.Violations is already deduplicated by signature).
func distinctSignatures(res *mc.Result) []string {
	out := make([]string, 0, len(res.Violations))
	for _, v := range res.Violations {
		out = append(out, v.Signature())
	}
	sort.Strings(out)
	return out
}

// chordFigure10Start replicates the start state of the paper's Figure 10
// Chord scenario (see chord's own model-checking test): A(1), C(3), D(5)
// form a ring after B's departure, and a reset + rejoin of C can produce
// pred(C)=C while other successors exist.
func chordFigure10Start() (sm.Factory, *mc.GState) {
	factory := chord.New(chord.Config{Bootstrap: []sm.NodeID{1}})
	a := factory(1).(*chord.Ring)
	a.Joined = true
	a.Pred = 5
	a.Succs = []sm.NodeID{3, 5, 1}

	c := factory(3).(*chord.Ring)
	c.Joined = true
	c.Pred = 1
	c.Succs = []sm.NodeID{5, 1, 3}

	d := factory(5).(*chord.Ring)
	d.Joined = true
	d.Pred = 3
	d.Succs = []sm.NodeID{1, 3, 5}

	g := mc.NewGState()
	g.AddNode(1, a, map[sm.TimerID]bool{chord.TimerStabilize: true})
	g.AddNode(3, c, map[sm.TimerID]bool{chord.TimerStabilize: true})
	g.AddNode(5, d, map[sm.TimerID]bool{chord.TimerStabilize: true})
	return factory, g
}

// paxosPostRound1Start replicates the post-round-1 snapshot of the paper's
// Figure 13 Paxos scenario (see paxos's own model-checking test).
func paxosPostRound1Start(factory sm.Factory) *mc.GState {
	a := factory(1).(*paxos.Paxos)
	a.PromisedRound = 3
	a.AcceptedRound = 3
	a.AcceptedVal = 0
	a.HasAccepted = true
	a.CurRound = 3
	a.Proposing = true
	a.AcceptSent = true
	a.ChosenVals = []int64{0}
	a.Learns = map[uint64]map[sm.NodeID]int64{3: {1: 0, 2: 0}}

	b := factory(2).(*paxos.Paxos)
	b.PromisedRound = 3
	b.AcceptedRound = 3
	b.AcceptedVal = 0
	b.HasAccepted = true
	b.Learns = map[uint64]map[sm.NodeID]int64{3: {2: 0}}

	g := mc.NewGState()
	g.AddNode(1, a, nil)
	g.AddNode(2, b, nil)
	g.AddNode(3, factory(3).(*paxos.Paxos), nil)
	return g
}

// Depth bounds for the determinism scenarios: deep enough to reach the
// paper's violations, shallow enough to explore exhaustively (no state
// cutoff, so the reachable set is independent of worker interleaving).
const (
	chordDeterminismDepth = 10
	paxosDeterminismDepth = 9
)

// TestParallelChordDeterminism: on the Chord Figure 10 scenario, a
// depth-bounded parallel search yields the same distinct violation
// signatures as the serial one.
func TestParallelChordDeterminism(t *testing.T) {
	run := func(workers int) *mc.Result {
		factory, g := chordFigure10Start()
		s := mc.NewSearch(mc.Config{
			Props:             props.Set{chord.PropPredSelfImpliesSuccSelf},
			Factory:           factory,
			Mode:              mc.Consequence,
			ExploreResets:     true,
			ExploreConnBreaks: true,
			MaxResetsPerPath:  1,
			Budget:            mc.Budget{Depth: chordDeterminismDepth, Workers: workers},
		})
		return s.Run(g)
	}
	serial := run(1)
	if len(serial.Violations) == 0 {
		t.Fatal("serial search missed the Figure 10 inconsistency")
	}
	parallel := run(4)
	if got, want := distinctSignatures(parallel), distinctSignatures(serial); !reflect.DeepEqual(got, want) {
		t.Fatalf("workers=4 signatures %v, serial %v", got, want)
	}
	if parallel.StatesExplored != serial.StatesExplored {
		t.Fatalf("workers=4 states %d, serial %d", parallel.StatesExplored, serial.StatesExplored)
	}
}

// TestParallelPaxosDeterminism: same check on the Paxos Figure 13 bug-1
// scenario.
func TestParallelPaxosDeterminism(t *testing.T) {
	factory := paxos.New(paxos.Config{Members: []sm.NodeID{1, 2, 3}, Bug1: true})
	run := func(workers int) *mc.Result {
		s := mc.NewSearch(mc.Config{
			Props:   paxos.Properties,
			Factory: factory,
			Mode:    mc.Consequence,
			Budget:  mc.Budget{Depth: paxosDeterminismDepth, Workers: workers},
		})
		return s.Run(paxosPostRound1Start(factory))
	}
	serial := run(1)
	if len(serial.Violations) == 0 {
		t.Fatal("serial search missed the bug-1 violation")
	}
	parallel := run(4)
	if got, want := distinctSignatures(parallel), distinctSignatures(serial); !reflect.DeepEqual(got, want) {
		t.Fatalf("workers=4 signatures %v, serial %v", got, want)
	}
	if parallel.StatesExplored != serial.StatesExplored {
		t.Fatalf("workers=4 states %d, serial %d", parallel.StatesExplored, serial.StatesExplored)
	}
}

// oracleWalkExt drives random event paths from start and checks the
// incremental hash against the from-scratch recomputation at every state;
// the external-package twin of the toy oracle in hash_oracle_test.go.
func oracleWalkExt(t *testing.T, s *mc.Search, start *mc.GState, walks, depth int, seed int64) {
	t.Helper()
	checkState := func(g *mc.GState, step int) {
		t.Helper()
		if got, want := g.Hash(), g.FullHash(); got != want {
			t.Fatalf("step %d: incremental hash %#x != from-scratch %#x", step, got, want)
		}
	}
	checkState(start, -1)
	for w := 0; w < walks; w++ {
		rng := sm.NewRand(seed ^ int64(w+1)*-0x61c8864680b583eb)
		g := start
		for step := 0; step < depth; step++ {
			network, internal := s.EnabledEvents(g)
			all := append([]sm.Event{}, network...)
			for _, id := range g.Nodes() {
				all = append(all, internal[id]...)
			}
			if len(all) == 0 {
				break
			}
			var next *mc.GState
			for _, i := range rng.Perm(len(all)) {
				if next = s.ApplyEvent(g, all[i]); next != nil {
					break
				}
			}
			if next == nil {
				break
			}
			checkState(next, step)
			// The predecessor must be untouched by successor construction.
			checkState(g, step)
			g = next
		}
	}
}

// TestHashOracleChord walks the paper's Figure 10 Chord scenario with
// resets and connection breaks enabled.
func TestHashOracleChord(t *testing.T) {
	factory, g := chordFigure10Start()
	s := mc.NewSearch(mc.Config{
		Props:             props.Set{},
		Factory:           factory,
		ExploreResets:     true,
		ExploreConnBreaks: true,
		MaxResetsPerPath:  1,
	})
	oracleWalkExt(t, s, g, 25, 20, 23)
}

// TestHashOraclePaxos walks the paper's Figure 13 Paxos scenario.
func TestHashOraclePaxos(t *testing.T) {
	factory := paxos.New(paxos.Config{Members: []sm.NodeID{1, 2, 3}, Bug1: true})
	s := mc.NewSearch(mc.Config{
		Props:         props.Set{},
		Factory:       factory,
		ExploreResets: true,
	})
	oracleWalkExt(t, s, paxosPostRound1Start(factory), 25, 20, 37)
}

// TestHashOracleCRDT walks the CRDT scenarios — gcounter and orset from
// their initial states, lwwmap from the staged clock-tie start with its
// in-flight puts — with resets enabled, pinning the incremental GState
// fingerprint against from-scratch re-encoding for map-heavy replica
// state (delivered-op sets, count vectors, live tags, tombstones).
func TestHashOracleCRDT(t *testing.T) {
	members := []sm.NodeID{1, 2, 3}
	fresh := func(f sm.Factory) *mc.GState {
		g := mc.NewGState()
		for _, id := range members {
			g.AddNode(id, f(id), nil)
		}
		return g
	}
	cases := []struct {
		name    string
		factory sm.Factory
		start   func(sm.Factory) *mc.GState
		seed    int64
	}{
		{"gcounter", crdt.NewCounter(members, false), fresh, 41},
		{"orset", crdt.NewSet(members, false), fresh, 43},
		{"lwwmap", crdt.NewMap(members, false), crdt.TieStart, 47},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := mc.NewSearch(mc.Config{
				Props:            props.Set{},
				Factory:          tc.factory,
				ExploreResets:    true,
				MaxResetsPerPath: 1,
			})
			oracleWalkExt(t, s, tc.start(tc.factory), 25, 20, tc.seed)
		})
	}
}

// TestConsequenceRoundAllocBound gates the allocation cost of one whole
// consequence-prediction round: the BenchmarkConsequencePrediction input (a
// five-node randtree snapshot, faults on, 2,000 states, one worker). The
// per-state contract lives in alloc_test.go; this bound also covers round
// setup — the engine's hash sets, collector and worker workspaces — which
// the per-state tests never see. It sits in the external test package
// because randtree imports mc.
func TestConsequenceRoundAllocBound(t *testing.T) {
	factory := randtree.New(randtree.Config{Bootstrap: []sm.NodeID{1}, MaxChildren: 3})
	g := mc.NewGState()
	for i := 1; i <= 5; i++ {
		g.AddNode(sm.NodeID(i), factory(sm.NodeID(i)), nil)
	}
	cfg := mc.Config{
		Props:         randtree.Properties,
		Factory:       factory,
		Mode:          mc.Consequence,
		Budget:        mc.Budget{States: 2000, Workers: 1},
		ExploreResets: true,
	}
	var res *mc.Result
	const maxAllocs = 823
	if avg := testing.AllocsPerRun(20, func() {
		res = mc.NewSearch(cfg).Run(g)
	}); avg > maxAllocs {
		t.Fatalf("consequence round allocates %.0f/op, want <= %d", avg, maxAllocs)
	}
	if res.StatesExplored == 0 {
		t.Fatal("no states explored")
	}
}
