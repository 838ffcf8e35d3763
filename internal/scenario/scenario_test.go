package scenario_test

import (
	"sort"
	"strings"
	"testing"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
	"crystalball/internal/services/crdt"
	"crystalball/internal/services/paxos"
	"crystalball/internal/sm"
)

// TestRegistryComplete: the built-in scenarios are registered under their
// canonical names, the bulletprime alias resolves, and lookups of unknown
// names fail.
func TestRegistryComplete(t *testing.T) {
	want := []string{"bulletprime", "chord", "gcounter", "lwwmap", "orset", "paxos", "randtree"}
	if got := scenario.Names(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		sc, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		if sc.Name != name {
			t.Fatalf("Lookup(%q).Name = %q", name, sc.Name)
		}
		if sc.Description == "" {
			t.Fatalf("%s: no description", name)
		}
	}
	alias, ok := scenario.Lookup("bullet")
	if !ok || alias.Name != "bulletprime" {
		t.Fatalf("alias bullet resolved to %v, ok=%v", alias, ok)
	}
	if _, ok := scenario.Lookup("nope"); ok {
		t.Fatal("Lookup of an unregistered name succeeded")
	}
}

// TestOptionResolution: zero Options fields resolve against the Check and
// Live tunings independently, and explicit values win.
func TestOptionResolution(t *testing.T) {
	sc := scenario.MustLookup("randtree")
	if got := sc.CheckOptions(scenario.Options{}); got.Nodes != 5 || got.Degree != 0 {
		t.Fatalf("CheckOptions zero = %+v, want Nodes 5 Degree 0", got)
	}
	if got := sc.LiveOptions(scenario.Options{}); got.Nodes != 12 || got.Degree != 3 {
		t.Fatalf("LiveOptions zero = %+v, want Nodes 12 Degree 3", got)
	}
	if got := sc.LiveOptions(scenario.Options{Nodes: 6, Degree: 2}); got.Nodes != 6 || got.Degree != 2 {
		t.Fatalf("LiveOptions explicit = %+v, want Nodes 6 Degree 2", got)
	}
}

// TestUnknownVariantRejected: every scenario rejects a variant string it
// does not define, through every builder.
func TestUnknownVariantRejected(t *testing.T) {
	for _, name := range scenario.Names() {
		sc := scenario.MustLookup(name)
		if _, _, err := sc.InitialState(scenario.Options{Variant: "no-such-variant"}); err == nil {
			t.Errorf("%s: InitialState accepted an unknown variant", name)
		}
		if _, err := sc.Deploy(scenario.DeployOptions{Service: scenario.Options{Variant: "no-such-variant"}}); err == nil {
			t.Errorf("%s: Deploy accepted an unknown variant", name)
		}
	}
}

// violatedProps collects the distinct property names among a result's
// violations.
func violatedProps(res *mc.Result) []string {
	seen := map[string]bool{}
	for _, v := range res.Violations {
		for _, p := range v.Properties {
			seen[p] = true
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// paxosFigure13Start stages the post-round-1 snapshot of the paper's
// Figure 13: round 3 (proposed by A=1) chose value 0 on {A, B} while C was
// partitioned away. From here a new proposal by C (or B) exposes bug 1 —
// the leader builds its Accept from the last Promise — by choosing a
// second value; the fixed leader re-proposes the accepted 0. A sibling of
// internal/mc's paxosPostRound1Start fixture, deliberately one event
// later: here B has also observed the round-3 Learn majority (ChosenVals
// [0]), so the fixed-variant case below genuinely re-chooses 0 rather
// than choosing for the first time.
func paxosFigure13Start(factory sm.Factory) *mc.GState {
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
	b.ChosenVals = []int64{0}
	b.Learns = map[uint64]map[sm.NodeID]int64{3: {2: 0}}

	g := mc.NewGState()
	g.AddNode(1, a, nil)
	g.AddNode(2, b, nil)
	g.AddNode(3, factory(3).(*paxos.Paxos), nil)
	return g
}

// TestScenarioMatrix iterates every registered scenario through a small
// bounded search and asserts the known seeded bugs are found where
// expected: each data-plane service exposes (at least) its signature
// inconsistency from a cheap start state, the fixed variants stay clean
// where the properties are steady-state invariants, and paxos demonstrates
// both the paper's "consequence prediction from the initial state is
// useless" claim and the staged Figure 13 bug-1 violation.
func TestScenarioMatrix(t *testing.T) {
	cases := []struct {
		label string
		name  string
		opts  scenario.Options
		mode  mc.Mode
		// stage overrides the initial state with a hand-built live
		// snapshot (nil = InitialState).
		stage     func(sm.Factory) *mc.GState
		maxStates int
		maxDepth  int
		// want lists property names that must appear among the
		// violations; empty means no violations at all.
		want []string
	}{
		{
			label: "randtree/buggy-exhaustive",
			name:  "randtree",
			opts:  scenario.Options{Nodes: 3},
			mode:  mc.Exhaustive,
			want:  []string{"RecoveryTimerRuns"},
		},
		{
			label: "chord/buggy-exhaustive",
			name:  "chord",
			opts:  scenario.Options{Nodes: 3},
			mode:  mc.Exhaustive,
			want:  []string{"NoForeignSelfLoop"},
		},
		{
			label: "bulletprime/buggy-consequence",
			name:  "bulletprime",
			opts:  scenario.Options{Nodes: 3},
			mode:  mc.Consequence,
			want:  []string{"SenderReceiverFileMapsAgree"},
		},
		{
			label: "bulletprime/fixed-consequence",
			name:  "bulletprime",
			opts:  scenario.Options{Nodes: 3, Fixed: true},
			mode:  mc.Consequence,
			want:  nil,
		},
		{
			// The paper's section 5.3 observation: consequence
			// prediction from the initial state never leaves the
			// initialization phase, so the deep Figure 13 bug stays
			// out of reach.
			label:     "paxos/initial-consequence-useless",
			name:      "paxos",
			opts:      scenario.Options{Variant: "bug1"},
			mode:      mc.Consequence,
			maxStates: 4000,
			want:      nil,
		},
		{
			label:    "paxos/figure13-bug1",
			name:     "paxos",
			opts:     scenario.Options{Variant: "bug1"},
			mode:     mc.Consequence,
			stage:    paxosFigure13Start,
			maxDepth: 9,
			want:     []string{"AtMostOneValueChosen"},
		},
		{
			label:    "paxos/figure13-fixed",
			name:     "paxos",
			opts:     scenario.Options{Fixed: true},
			mode:     mc.Consequence,
			stage:    paxosFigure13Start,
			maxDepth: 9,
			want:     nil,
		},
		{
			// The seeded overwrite merge diverges within consequence
			// prediction's reach only with spare passive nodes: their
			// fresh local states keep the critical interleavings
			// unclaimed (3 nodes is below the detection threshold).
			label: "gcounter/buggy-consequence",
			name:  "gcounter",
			opts:  scenario.Options{Nodes: 5},
			mode:  mc.Consequence,
			want:  []string{"ReplicaConvergence"},
		},
		{
			label: "gcounter/fixed-consequence",
			name:  "gcounter",
			opts:  scenario.Options{Nodes: 5, Fixed: true},
			mode:  mc.Consequence,
			want:  nil,
		},
		{
			label: "orset/buggy-consequence",
			name:  "orset",
			opts:  scenario.Options{Nodes: 3},
			mode:  mc.Consequence,
			want:  []string{"ReplicaConvergence"},
		},
		{
			label: "orset/fixed-consequence",
			name:  "orset",
			opts:  scenario.Options{Nodes: 3, Fixed: true},
			mode:  mc.Consequence,
			want:  nil,
		},
		{
			// The lwwmap sibling of paxos/initial-consequence-useless:
			// the clock-tie divergence needs interleavings that claim
			// pruning removes from the initial state, so consequence
			// prediction stays clean here and needs the staged tie
			// below (exhaustive search finds it from the initial state;
			// see the dist oracle matrix).
			label: "lwwmap/initial-consequence-useless",
			name:  "lwwmap",
			opts:  scenario.Options{Nodes: 3},
			mode:  mc.Consequence,
			want:  nil,
		},
		{
			label:    "lwwmap/tie-consequence",
			name:     "lwwmap",
			opts:     scenario.Options{Nodes: 3},
			mode:     mc.Consequence,
			stage:    crdt.TieStart,
			maxDepth: 6,
			want:     []string{"ReplicaConvergence"},
		},
		{
			label:    "lwwmap/tie-fixed",
			name:     "lwwmap",
			opts:     scenario.Options{Nodes: 3, Fixed: true},
			mode:     mc.Consequence,
			stage:    crdt.TieStart,
			maxDepth: 6,
			want:     nil,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.label, func(t *testing.T) {
			sc := scenario.MustLookup(tc.name)
			g, cfg, err := sc.InitialState(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.stage != nil {
				g = tc.stage(cfg.Factory)
			}
			cfg.Mode = tc.mode
			cfg.Budget.Workers = 1
			cfg.Seed = 1
			cfg.Budget.States = tc.maxStates
			if cfg.Budget.States == 0 {
				cfg.Budget.States = 60000
			}
			cfg.Budget.Depth = tc.maxDepth
			cfg.Budget.Wall = 2 * time.Minute
			res := mc.NewSearch(cfg).Run(g)
			got := violatedProps(res)
			if len(tc.want) == 0 {
				if len(got) != 0 {
					t.Fatalf("expected no violations, found %v", got)
				}
				return
			}
			for _, p := range tc.want {
				found := false
				for _, q := range got {
					if q == p {
						found = true
					}
				}
				if !found {
					t.Fatalf("expected violation of %s, found %v (states=%d)",
						p, got, res.StatesExplored)
				}
			}
		})
	}
}

// TestDeploySmoke deploys every registered scenario briefly in debugging
// mode and checks the stack holds together: nodes exist at the scenario's
// default count, controllers run rounds, and the ground-truth view covers
// every node.
func TestDeploySmoke(t *testing.T) {
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc := scenario.MustLookup(name)
			d, err := sc.Deploy(scenario.DeployOptions{
				Seed:     3,
				Control:  scenario.Debug,
				MCStates: 200,
				Workload: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Nodes) != sc.Live.Nodes || len(d.Ctrls) != sc.Live.Nodes {
				t.Fatalf("deployed %d nodes / %d controllers, want %d",
					len(d.Nodes), len(d.Ctrls), sc.Live.Nodes)
			}
			d.Sim.RunFor(45 * time.Second)
			var rounds int64
			for _, c := range d.Ctrls {
				rounds += c.Stats.Rounds
			}
			if rounds == 0 {
				t.Fatal("no model-checking rounds ran")
			}
			v := d.View()
			for _, node := range d.Nodes {
				if !v.Has(node.ID) {
					t.Fatalf("view missing node %v", node.ID)
				}
			}
		})
	}
}

// TestDeployBareCheckpoints: a bare deployment with Checkpoints attaches
// one standalone snapshot manager per node and no controllers.
func TestDeployBareCheckpoints(t *testing.T) {
	d, err := scenario.Deploy("randtree", scenario.DeployOptions{
		Seed:        5,
		Service:     scenario.Options{Nodes: 4},
		Control:     scenario.Bare,
		Checkpoints: true,
		Workload:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Ctrls) != 0 {
		t.Fatalf("bare deployment got %d controllers", len(d.Ctrls))
	}
	if len(d.Mgrs) != 4 {
		t.Fatalf("got %d snapshot managers, want 4", len(d.Mgrs))
	}
	d.Sim.RunFor(15 * time.Second)
	if d.Mgrs[0].LatestCheckpointSize() == 0 {
		t.Fatal("no checkpoint was taken")
	}
}
