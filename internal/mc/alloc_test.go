package mc

import (
	"testing"

	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// Allocation-regression tests for the checker's per-explored-state path.
// The hot path is designed around reused scratch (pooled encoders, worker
// views, enumeration buffers), so these bounds are part of the contract:
// a change that quietly reintroduces per-state allocation fails here long
// before it shows up in a profile.

// TestHashLookupZeroAllocs: Hash on a constructed state is a pure read.
func TestHashLookupZeroAllocs(t *testing.T) {
	g := multiTimerStart()
	if avg := testing.AllocsPerRun(1000, func() {
		if g.Hash() == 0 {
			t.Fatal("zero hash")
		}
	}); avg != 0 {
		t.Fatalf("Hash lookup allocates %.2f/op, want 0", avg)
	}
}

// TestReusedViewCheckZeroAllocs: refilling a reused view and evaluating a
// non-violated property set allocates nothing in steady state.
func TestReusedViewCheckZeroAllocs(t *testing.T) {
	g := multiTimerStart()
	ps := poisonAt(1000) // clean state: Check returns nil, no result slice
	v := props.NewView()
	g.FillView(v) // warm the view's storage
	if got := ps.Check(v); got != nil {
		t.Fatalf("state unexpectedly violates %v", got)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		g.FillView(v)
		if ps.Check(v) != nil {
			t.Fatal("unexpected violation")
		}
	}); avg != 0 {
		t.Fatalf("reused-view property check allocates %.2f/op, want 0", avg)
	}
}

// TestEnabledEventsReusedBufferAllocBound: enumeration through a reused
// eventBuf allocates at most one boxing per enumerated event (storing a
// struct in an sm.Event interface) — the buffers themselves (slices, dedup
// map, per-state sorting, string keys) contribute nothing once warm.
func TestEnabledEventsReusedBufferAllocBound(t *testing.T) {
	s := NewSearch(Config{Props: poisonAt(1000), Factory: newToy, ExploreResets: true})
	g := multiTimerStart()
	var buf eventBuf
	network, _, internal := s.enabledInto(g, &buf) // warm + count
	events := len(network)
	for i := range internal {
		events += len(internal[i])
	}
	if events == 0 {
		t.Fatal("no events enumerated")
	}
	if avg := testing.AllocsPerRun(1000, func() {
		s.enabledInto(g, &buf)
	}); avg > float64(events) {
		t.Fatalf("reused-buffer enumeration allocates %.2f/op for %d events, want <= one boxing per event", avg, events)
	}
}

// TestSuccessorAllocBound bounds the full apply+hash cost of one successor.
// The remaining allocations are the successor's own storage (GState and
// NodeState containers, the service clone, copied slices) — the transient
// workspace (encoders, handler context, random stream, hash state) comes
// from the pooled scratch and must not count. The bound has headroom over
// the measured value (~10) but sits far below the pre-scratch cost (~30).
func TestSuccessorAllocBound(t *testing.T) {
	s := NewSearch(Config{Props: poisonAt(1000), Factory: newToy})
	g := multiTimerStart()
	ev := sm.TimerEvent{At: 1, Timer: "tick"}
	if s.ApplyEvent(g, ev) == nil {
		t.Fatal("timer event not applicable")
	}
	const maxAllocs = 20
	if avg := testing.AllocsPerRun(500, func() {
		if s.ApplyEvent(g, ev) == nil {
			t.Fatal("timer event not applicable")
		}
	}); avg > maxAllocs {
		t.Fatalf("successor construction allocates %.1f/op, want <= %d", avg, maxAllocs)
	}
}

// TestReductionCountersAllocBound: the reduction and work-stealing
// counters are pre-allocated atomics on the engine — bumping them costs no
// allocation — and the sleep-set bookkeeping itself adds at most a small
// constant per executed transition (one childSleep slice per expanded
// child). The bound is relative to the unreduced engine so the existing
// per-state allocation contract keeps gating both configurations.
func TestReductionCountersAllocBound(t *testing.T) {
	run := func(reduce bool) (res *Result, perTransition float64) {
		cfg := Config{
			Props:         poisonAt(1000),
			Factory:       newToy,
			Mode:          Exhaustive,
			Budget:        Budget{Depth: 6, Workers: 1},
			Seed:          7,
			ExploreResets: true,
			Reduce:        reduce,
		}
		allocs := testing.AllocsPerRun(3, func() {
			res = NewSearch(cfg).Run(multiTimerStart())
		})
		if res.Transitions == 0 {
			t.Fatal("no transitions executed")
		}
		return res, allocs / float64(res.Transitions)
	}
	base, basePer := run(false)
	red, redPer := run(true)
	if red.SleepHits == 0 {
		t.Fatalf("toy search pruned nothing; bound is vacuous")
	}
	if red.StatesExplored != base.StatesExplored {
		t.Fatalf("reduced search changed the state set: %d vs %d",
			red.StatesExplored, base.StatesExplored)
	}
	const slack = 3.0 // sleep-set slices + accounting, per transition
	if redPer > basePer+slack {
		t.Fatalf("reduced engine allocates %.1f/transition, unreduced %.1f (+%.0f allowed)",
			redPer, basePer, slack)
	}
}

// TestFNVEventMatchesDescribe pins edgeSeed's streaming event hash to the
// rendered Describe string for every event kind: the per-edge random
// streams — and so the whole exploration — stay byte-identical to the
// implementation that hashed ev.Describe() directly.
func TestFNVEventMatchesDescribe(t *testing.T) {
	events := []sm.Event{
		sm.MsgEvent{From: 1, To: 2, Msg: ping{N: 7}},
		sm.MsgEvent{From: sm.NoNode, To: 0, Msg: ping{N: 0}},
		sm.TimerEvent{At: 3, Timer: "tick"},
		sm.TimerEvent{At: 2147483647, Timer: ""},
		sm.AppEvent{At: 4, Call: kick{}},
		sm.ResetEvent{At: 5},
		sm.ErrorEvent{At: 6, Peer: 7},
		sm.ErrorEvent{At: 0, Peer: sm.NoNode},
		sm.DropEvent{From: 8, To: 9},
	}
	for _, ev := range events {
		want := sm.FNV64aString(sm.FNV64aInit, ev.Describe())
		if got := fnvEvent(sm.FNV64aInit, ev); got != want {
			t.Errorf("fnvEvent(%q) = %#x, want %#x (hash of Describe)", ev.Describe(), got, want)
		}
	}
}

// TestEncodedSizeOracle: the incrementally maintained footprint must match
// the from-scratch recomputation at every step of random walks, exactly
// like the hash oracle.
func TestEncodedSizeOracle(t *testing.T) {
	s := NewSearch(Config{
		Props:            poisonAt(1000),
		Factory:          newToy,
		ExploreResets:    true,
		MaxResetsPerPath: 2,
	})
	start := multiTimerStart()
	check := func(g *GState, step int) {
		t.Helper()
		if got, want := g.EncodedSize(), g.fullEncodedSize(); got != want {
			t.Fatalf("step %d: incremental EncodedSize %d != from-scratch %d", step, got, want)
		}
	}
	check(start, -1)
	for w := 0; w < 20; w++ {
		rng := sm.NewRand(int64(w + 1))
		g := start
		for step := 0; step < 25; step++ {
			network, internal := s.EnabledEvents(g)
			all := append([]sm.Event{}, network...)
			for _, id := range g.Nodes() {
				all = append(all, internal[id]...)
			}
			if len(all) == 0 {
				break
			}
			var next *GState
			for _, i := range rng.Perm(len(all)) {
				if next = s.ApplyEvent(g, all[i]); next != nil {
					break
				}
			}
			if next == nil {
				break
			}
			check(next, step)
			check(g, step)
			g = next
		}
	}
}
