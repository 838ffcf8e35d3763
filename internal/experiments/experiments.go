// Package experiments implements one harness per table and figure of the
// CrystalBall paper's evaluation (section 5). Each harness returns a
// structured result plus a plain-text rendering with the same rows or
// series the paper reports; cmd/experiments prints them and bench_test.go
// wraps them as benchmarks. All harnesses are deterministic for a fixed
// seed and scale with their parameters, so benchmarks can run scaled-down
// versions of the same code paths.
package experiments

import (
	"fmt"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
	"crystalball/internal/services/randtree"
	"crystalball/internal/sm"
	"crystalball/internal/stats"
)

// ----------------------------------------------------------------------------
// Figure 12: exhaustive-search (MaceMC baseline) elapsed time vs depth.

// DepthPoint is one point of a depth sweep.
type DepthPoint struct {
	Depth   int
	States  int
	Elapsed time.Duration
	// MemBytes approximates the search-tree footprint (Figures 15/16).
	MemBytes     int64
	PerStateByte float64
}

// Fig12Config parameterises the exhaustive depth sweep.
type Fig12Config struct {
	Seed      int64
	Nodes     int           // paper: 5
	MaxDepth  int           // paper reaches 12-13 in hours
	MaxStates int           // per-depth safety bound
	MaxWall   time.Duration // per-depth wall bound
	Workers   int           // checker worker-pool size (0 = GOMAXPROCS)
}

// Fig12Exhaustive reproduces Figure 12: elapsed time of exhaustive search
// on RandTree from the initial state, as a function of depth. The shape to
// reproduce is exponential growth that makes depths beyond ~12 infeasible.
func Fig12Exhaustive(cfg Fig12Config) []DepthPoint {
	if cfg.Nodes == 0 {
		cfg.Nodes = 5
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 8
	}
	var out []DepthPoint
	for d := 1; d <= cfg.MaxDepth; d++ {
		res := runRandTreeSearch(cfg.Seed, cfg.Nodes, mc.Exhaustive, mc.Budget{
			Depth: d, States: cfg.MaxStates, Wall: cfg.MaxWall, Workers: cfg.Workers,
		}, false)
		out = append(out, DepthPoint{
			Depth:        d,
			States:       res.StatesExplored,
			Elapsed:      res.Elapsed,
			MemBytes:     res.PeakMemoryBytes,
			PerStateByte: res.PerStateBytes,
		})
		if cfg.MaxWall > 0 && res.Elapsed > cfg.MaxWall {
			break // the next depth would only run into the same wall
		}
	}
	return out
}

// runRandTreeSearch builds an n-node RandTree initial state (all nodes
// unjoined, ready to issue Join app calls) and runs one search over it.
func runRandTreeSearch(seed int64, n int, mode mc.Mode, budget mc.Budget, resets bool) *mc.Result {
	g, cfg, err := scenario.InitialState("randtree", scenario.Options{Nodes: n})
	if err != nil {
		panic(err)
	}
	cfg.Mode = mode
	cfg.Budget = budget
	cfg.ExploreResets = resets
	cfg.Seed = seed
	return mc.NewSearch(cfg).Run(g)
}

// FormatDepthPoints renders a depth sweep as a table.
func FormatDepthPoints(title string, pts []DepthPoint) string {
	t := stats.Table{Title: title, Header: []string{"depth", "states", "elapsed", "mem-bytes", "bytes/state"}}
	for _, p := range pts {
		t.Add(p.Depth, p.States, p.Elapsed, p.MemBytes, p.PerStateByte)
	}
	return t.String()
}

// ----------------------------------------------------------------------------
// Figures 15/16: consequence-prediction memory vs depth.

// Fig15Config parameterises the memory sweep.
type Fig15Config struct {
	Seed      int64
	MaxDepth  int // paper sweeps to ~12, notes <1 MB at 7-8
	MaxStates int
	Workers   int // checker worker-pool size (0 = GOMAXPROCS)
}

// Fig15Memory reproduces Figures 15 and 16: the memory consumed by the
// consequence-prediction search tree as a function of depth, and the
// per-state footprint (paper: converging to ~150 bytes). The start state is
// a formed 5-node RandTree neighborhood (the same kind of snapshot the
// controller feeds the checker), with reset exploration on.
func Fig15Memory(cfg Fig15Config) []DepthPoint {
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 8
	}
	factory, g := formedTreeState(5)
	var out []DepthPoint
	for d := 1; d <= cfg.MaxDepth; d++ {
		s := mc.NewSearch(mc.Config{
			Props:         randtree.Properties,
			Factory:       factory,
			Mode:          mc.Consequence,
			Budget:        mc.Budget{Workers: cfg.Workers, Depth: d, States: cfg.MaxStates},
			ExploreResets: true,
			Seed:          cfg.Seed,
		})
		res := s.Run(g)
		out = append(out, DepthPoint{
			Depth:        d,
			States:       res.StatesExplored,
			Elapsed:      res.Elapsed,
			MemBytes:     res.PeakMemoryBytes,
			PerStateByte: res.PerStateBytes,
		})
	}
	return out
}

// formedTreeState builds an n-node RandTree that has already converged —
// the kind of live state a neighborhood snapshot captures. Nodes are
// arranged as a binary-heap-shaped tree (parent of node i is i/2) under a
// degree bound of 3, so every node keeps a spare child slot: a resetting
// node can rejoin directly under the root, which is the Figure 2
// precondition.
func formedTreeState(n int) (sm.Factory, *mc.GState) {
	factory := randtree.New(randtree.Config{Bootstrap: []sm.NodeID{1}, MaxChildren: 3})
	if n < 3 {
		n = 3
	}
	parent := func(i int) int { return i / 2 }
	children := make(map[int][]int)
	for i := 2; i <= n; i++ {
		children[parent(i)] = append(children[parent(i)], i)
	}
	g := mc.NewGState()
	for i := 1; i <= n; i++ {
		id := sm.NodeID(i)
		t := factory(id).(*randtree.Tree)
		t.Joined = true
		t.Root = 1
		t.IsRoot = i == 1
		if i == 1 {
			t.Parent = sm.NoNode
		} else {
			t.Parent = sm.NodeID(parent(i))
			t.Peers[t.Parent] = true
			t.Peers[1] = true
		}
		for _, c := range children[i] {
			t.Children[sm.NodeID(c)] = true
			t.Peers[sm.NodeID(c)] = true
		}
		// Children of the root know their siblings.
		if i != 1 && parent(i) == 1 {
			for _, s := range children[1] {
				if s != i {
					t.Siblings[sm.NodeID(s)] = true
					t.Peers[sm.NodeID(s)] = true
				}
			}
		}
		g.AddNode(id, t, map[sm.TimerID]bool{randtree.TimerRecovery: true})
	}
	return factory, g
}

// ----------------------------------------------------------------------------
// Section 5.3: depth reached under a fixed time budget, exhaustive vs
// consequence prediction.

// DepthBudgetRow is one row of the comparison.
type DepthBudgetRow struct {
	Start      string // "initial" or "live-snapshot"
	Nodes      int
	Mode       string
	Depth      int
	States     int
	Elapsed    time.Duration
	Violations int
}

// DepthComparison reproduces the section 5.3 comparison along both of the
// paper's axes:
//
//   - From the *initial* state (the MaceMC setup), exhaustive search's
//     reachable depth collapses as the node count grows (paper: depth 12
//     with 5 nodes, depth 1 with 100 after 17 hours) and the deep
//     Figure 2-class bugs stay out of reach; consequence prediction from
//     the initial state is intentionally useless too ("never exploring
//     states beyond the initialization phase" cuts both ways — there is no
//     live execution to follow).
//   - From a *live snapshot* (a formed tree), consequence prediction finds
//     the Figure 2-class violation within a small fraction of the states
//     and time exhaustive search needs, and the gap widens with scale.
func DepthComparison(seed int64, budget time.Duration, nodeCounts []int, workers int) []DepthBudgetRow {
	var rows []DepthBudgetRow
	for _, n := range nodeCounts {
		for _, mode := range []mc.Mode{mc.Exhaustive, mc.Consequence} {
			res := runRandTreeSearch(seed, n, mode, mc.Budget{Wall: budget, Workers: workers}, true)
			rows = append(rows, DepthBudgetRow{
				Start:      "initial",
				Nodes:      n,
				Mode:       mode.String(),
				Depth:      res.MaxDepthReached,
				States:     res.StatesExplored,
				Elapsed:    res.Elapsed,
				Violations: len(res.Violations),
			})
		}
	}
	for _, n := range nodeCounts {
		for _, mode := range []mc.Mode{mc.Exhaustive, mc.Consequence} {
			factory, g := formedTreeState(n)
			s := mc.NewSearch(mc.Config{
				Props:            props.Set{randtree.PropChildrenSiblingsDisjoint},
				Factory:          factory,
				Mode:             mode,
				Budget:           mc.Budget{Workers: workers, Wall: budget, Violations: 1},
				ExploreResets:    true,
				MaxResetsPerPath: 1,
				Seed:             seed,
			})
			res := s.Run(g)
			rows = append(rows, DepthBudgetRow{
				Start:      "live-snapshot",
				Nodes:      n,
				Mode:       mode.String(),
				Depth:      res.MaxDepthReached,
				States:     res.StatesExplored,
				Elapsed:    res.Elapsed,
				Violations: len(res.Violations),
			})
		}
	}
	return rows
}

// FormatDepthComparison renders the comparison table.
func FormatDepthComparison(rows []DepthBudgetRow, budget time.Duration) string {
	t := stats.Table{
		Title:  fmt.Sprintf("Section 5.3: exhaustive vs consequence prediction (budget %v)", budget),
		Header: []string{"start", "nodes", "mode", "depth", "states", "elapsed", "violations"},
	}
	for _, r := range rows {
		t.Add(r.Start, r.Nodes, r.Mode, r.Depth, r.States, r.Elapsed, r.Violations)
	}
	return t.String()
}

// The shared deployment helper that used to live here (Deployment, Deploy,
// Churn, SnapCfg) is now the scenario package's deployment builder: every
// harness below describes its deployment with scenario.DeployOptions and
// the registry supplies the stack.
