package crystalball_test

import (
	"testing"

	"crystalball/internal/sm"
)

// TestMicroBenchAllocBounds gates the allocation cost of one op of each
// root micro-benchmark below the consequence round (whose gate lives in
// internal/mc): every case runs its benchmark's own input through
// testing.AllocsPerRun and fails above the count measured when the bound
// was set. Allocs/op does not depend on the host, so these tests — not a
// recorded benchmark file — are the checker's per-layer cost record; an
// intentional change lowers the bound in the same commit. Under -race
// sync.Pool drops a random quarter of its Puts, so StateHash/successor
// measures 11 or 12 there; its race bound is the larger.
func TestMicroBenchAllocBounds(t *testing.T) {
	type gate struct {
		name string
		// op builds the benchmark input and returns one benchmark op.
		op               func(t *testing.T) func()
		bound, raceBound float64
	}
	gates := []gate{
		{"StateHash/successor", func(t *testing.T) func() {
			s, g, ev := stateHashInput(t)
			return func() {
				if next := s.ApplyEvent(g, ev); next == nil || next.Hash() == 0 {
					t.Fatal("bad successor")
				}
			}
		}, 10, 12},
		{"CheckpointEncode", func(t *testing.T) func() {
			tree, timers := checkpointInput()
			return func() {
				if len(sm.EncodeFullState(tree, timers)) == 0 {
					t.Fatal("empty encoding")
				}
			}
		}, 14, 14},
	}
	for _, tc := range globalPropsCases {
		gates = append(gates, gate{"GlobalProps/" + tc.service, func(t *testing.T) func() {
			op := globalPropsOp(t, tc.service, tc.nodes, tc.warm)
			return func() {
				if op() != 0 {
					t.Fatal("warmed state violates a global property")
				}
			}
		}, 0, 0})
	}
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) {
			bound := g.bound
			if raceEnabled {
				bound = g.raceBound
			}
			avg := testing.AllocsPerRun(200, g.op(t))
			t.Logf("%.0f allocs/op", avg)
			if avg > bound {
				t.Fatalf("%s allocates %.0f/op, want <= %.0f", g.name, avg, bound)
			}
		})
	}
}
