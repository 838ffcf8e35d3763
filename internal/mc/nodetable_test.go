package mc

import (
	"slices"
	"testing"

	"crystalball/internal/sm"
)

// These tests pin the slice-backed node table — ids ascending, nodes[i]
// the local state of ids[i], lookup by binary search — to the semantics of
// the id-keyed map it replaced.

// sparseTableStart builds a four-node state whose ids are sparse and added
// out of order; every node knows the others plus the absent node 600.
func sparseTableStart() (*GState, map[sm.NodeID]*toy) {
	ids := []sm.NodeID{907, 12, 455, 3}
	g := NewGState()
	svcs := make(map[sm.NodeID]*toy)
	for _, id := range ids {
		a := newToy(id).(*toy)
		a.counter = int(id) % 5
		for _, p := range ids {
			if p != id {
				a.peers[p] = true
			}
		}
		a.peers[600] = true
		svcs[id] = a
		g.AddNode(id, a, map[sm.TimerID]bool{"tick": true})
	}
	g.AddMessage(12, 907, ping{N: 2})
	return g, svcs
}

// TestNodeTableOracle: Nodes is sorted, Node resolves every present id to
// the state it was added with and every absent id to nil, and a send to an
// absent id is redirected to the dummy node rather than materialising it.
func TestNodeTableOracle(t *testing.T) {
	g, svcs := sparseTableStart()
	if want := []sm.NodeID{3, 12, 455, 907}; !slices.Equal(g.Nodes(), want) {
		t.Fatalf("Nodes() = %v, want %v", g.Nodes(), want)
	}
	for id, svc := range svcs {
		if ns := g.Node(id); ns == nil || ns.Svc != svc {
			t.Fatalf("Node(%d) does not return the state added for it", id)
		}
	}
	for _, id := range []sm.NodeID{-1, 0, 4, 13, 454, 456, 600, 906, 908} {
		if g.Node(id) != nil {
			t.Fatalf("Node(%d) = non-nil for an absent id", id)
		}
	}
	if got, want := g.Hash(), g.FullHash(); got != want {
		t.Fatalf("constructed state: Hash %#x != FullHash %#x", got, want)
	}
	if got, want := g.EncodedSize(), g.fullEncodedSize(); got != want {
		t.Fatalf("constructed state: EncodedSize %d != fullEncodedSize %d", got, want)
	}

	s := NewSearch(Config{Props: poisonAt(1000), Factory: newToy})
	// Kick sends a ping to every peer: three present, one absent.
	next := s.ApplyEvent(g, sm.AppEvent{At: 455, Call: kick{}})
	if next == nil {
		t.Fatal("Kick not applicable")
	}
	if got := s.dummyRedirects.Load(); got != 1 {
		t.Fatalf("dummy redirects = %d, want 1 (the send to absent node 600)", got)
	}
	if got := next.InFlightCount(); got != 1+3 {
		t.Fatalf("in-flight after Kick = %d, want 4 (one queued ping + three sends to present peers)", got)
	}
	if next.Node(600) != nil || !slices.Equal(next.Nodes(), g.Nodes()) {
		t.Fatalf("send to an absent node changed the node set: %v", next.Nodes())
	}
}

// TestNodeTableNoAliasing: a successor's table is its own. After a handler
// runs, the parent still maps every id to its original state, while the
// successor holds a fresh state for the executing node and shares the rest.
func TestNodeTableNoAliasing(t *testing.T) {
	g, svcs := sparseTableStart()
	s := NewSearch(Config{Props: poisonAt(1000), Factory: newToy, ExploreResets: true})
	before := g.Hash()
	for _, ev := range []sm.Event{
		sm.TimerEvent{At: 12, Timer: "tick"},
		sm.MsgEvent{From: 12, To: 907, Msg: ping{N: 2}},
		sm.AppEvent{At: 3, Call: kick{}},
		sm.ResetEvent{At: 455},
	} {
		next := s.ApplyEvent(g, ev)
		if next == nil {
			t.Fatalf("%s not applicable", ev.Describe())
		}
		at, _ := eventNode(ev)
		for id, svc := range svcs {
			if g.Node(id).Svc != svc {
				t.Fatalf("%s: parent's Node(%d) changed", ev.Describe(), id)
			}
			shared := next.Node(id) == g.Node(id)
			if id == at && shared {
				t.Fatalf("%s: successor did not replace Node(%d)", ev.Describe(), id)
			}
			if id != at && !shared {
				t.Fatalf("%s: successor copied untouched Node(%d)", ev.Describe(), id)
			}
		}
		if &next.nodes[0] == &g.nodes[0] {
			t.Fatalf("%s: successor shares its parent's node table", ev.Describe())
		}
		if g.Hash() != before || g.FullHash() != before {
			t.Fatalf("%s: parent fingerprint moved", ev.Describe())
		}
	}
}

// TestNodeTableWalkOracle: along seeded walks over the sparse table —
// resets and connection breaks included — the incremental fingerprint and
// footprint equal their from-scratch recomputations at every state, and no
// step disturbs its predecessor's table.
func TestNodeTableWalkOracle(t *testing.T) {
	g, _ := sparseTableStart()
	s := NewSearch(Config{
		Props:             poisonAt(1000),
		Factory:           newToy,
		ExploreResets:     true,
		MaxResetsPerPath:  2,
		ExploreConnBreaks: true,
	})
	rng := sm.NewRand(15)
	for w := 0; w < 30; w++ {
		cur := g
		for step := 0; step < 14; step++ {
			network, internal := s.EnabledEvents(cur)
			all := append([]sm.Event{}, network...)
			for _, id := range cur.Nodes() {
				all = append(all, internal[id]...)
			}
			if len(all) == 0 {
				break
			}
			parentNodes := slices.Clone(cur.nodes)
			next := s.ApplyEvent(cur, all[rng.Intn(len(all))])
			if next == nil {
				continue
			}
			if !slices.Equal(cur.nodes, parentNodes) {
				t.Fatalf("walk %d step %d: successor construction rewrote its parent's table", w, step)
			}
			if got, want := next.Hash(), next.FullHash(); got != want {
				t.Fatalf("walk %d step %d: Hash %#x != FullHash %#x", w, step, got, want)
			}
			if got, want := next.EncodedSize(), next.fullEncodedSize(); got != want {
				t.Fatalf("walk %d step %d: EncodedSize %d != fullEncodedSize %d", w, step, got, want)
			}
			cur = next
		}
	}
}

// TestAddNodeAllocBound: building a state allocates no more than the
// id-keyed map did. The bound is the map version's measured cost for this
// input — eight nodes added in shuffled order, each with a pending timer,
// the state escaping as a real snapshot's does: 59 (74 under -race). The
// table version measures one below it in both modes.
func TestAddNodeAllocBound(t *testing.T) {
	order := []sm.NodeID{4, 7, 1, 8, 3, 6, 2, 5}
	svcs := make([]sm.Service, len(order))
	for i, id := range order {
		svcs[i] = newToy(id)
	}
	timers := map[sm.TimerID]bool{"tick": true}
	var g *GState
	avg := testing.AllocsPerRun(100, func() {
		g = NewGState()
		for i, id := range order {
			g.AddNode(id, svcs[i], timers)
		}
	})
	if len(g.Nodes()) != len(order) {
		t.Fatalf("built %d nodes, want %d", len(g.Nodes()), len(order))
	}
	mapVersion := 59.0
	if RaceEnabled {
		mapVersion = 74
	}
	if avg > mapVersion {
		t.Fatalf("building an 8-node state allocates %.0f/op, want <= %.0f", avg, mapVersion)
	}
}
