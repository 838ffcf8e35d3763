package main

import (
	"testing"

	"crystalball/internal/dist"
	"crystalball/internal/mc"
)

// A traced round on a shallow budget: the session's wrappers record spans
// and bytes while the coordinator's readers run, and the round matches the
// serial engine. Run with -race.
func TestShardedSessionTracedRound(t *testing.T) {
	su := dist.Setup{Scenario: shardedService, Nodes: shardedNodes, Seed: 1, Workers: 1}
	s, err := openSession(su)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	s.tr.Store(tr)
	root := tr.begin("sharded.round", 0)
	s.round.Store(root.id)
	r, err := s.coord.RunRound(mc.Budget{Depth: 4, Workers: 1}, false)
	root.end()
	s.tr.Store(nil)
	if cerr := s.close(); cerr != nil {
		t.Errorf("close: %v", cerr)
	}
	if err != nil {
		t.Fatal(err)
	}

	g, cfg, err := buildSharded(su)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Budget = mc.Budget{Depth: 4, Workers: 1}
	if want := mc.NewSearch(cfg).Run(g).StatesExplored; r.Checker.StatesExplored != want {
		t.Errorf("round claimed %d states, serial engine %d", r.Checker.StatesExplored, want)
	}
	if len(tr.durations("dist.send")) == 0 || len(tr.durations("dist.recv")) == 0 {
		t.Errorf("no dist.send or dist.recv spans recorded")
	}
	if s.wireBytes() == 0 {
		t.Errorf("no wire bytes counted")
	}
}
