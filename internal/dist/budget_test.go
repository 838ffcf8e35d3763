package dist

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
)

// budgetStart builds a 3-node exhaustive start state for service.
func budgetStart(t *testing.T, service string) (*mc.GState, mc.Config) {
	t.Helper()
	g, cfg, err := scenario.InitialState(service, scenario.Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = mc.Exhaustive
	return g, cfg
}

// stepClock is a fake clock shared by every shard of a round: each reading
// advances it one step, so wall-budget expiry depends only on how many
// admissions the shards perform.
type stepClock struct{ n atomic.Int64 }

func (c *stepClock) Now() time.Time {
	return time.Unix(0, c.n.Add(1)*int64(time.Millisecond))
}

// TestBudgetCutoffs runs budget-cut distributed rounds at shards 1/2 ×
// workers 1/2: a one-violation quota must halt the shard that fills it,
// and a wall budget on a fake clock must stop expansion after the number
// of admissions the clock allows.
func TestBudgetCutoffs(t *testing.T) {
	cases := []struct {
		name    string
		service string
		budget  mc.Budget
		check   func(t *testing.T, b mc.Budget, res *Result)
	}{
		{
			name:    "violations",
			service: "gcounter",
			budget:  mc.Budget{Violations: 1, Depth: 12},
			check: func(t *testing.T, b mc.Budget, res *Result) {
				if len(res.Checker.Violations) == 0 {
					t.Fatal("no violation reported")
				}
				if !anyExhausted(res) {
					t.Error("no shard halted on the filled violation quota")
				}
			},
		},
		{
			name:    "wall",
			service: "gcounter",
			budget:  mc.Budget{Wall: 20 * time.Millisecond, Depth: 12},
			check: func(t *testing.T, b mc.Budget, res *Result) {
				if !anyExhausted(res) {
					t.Error("no shard stopped on the wall deadline")
				}
				// Each admission reads the shared clock once, so no shard
				// admits more than Wall/step states.
				for _, r := range res.PerShard {
					if r.Expansions > 20 {
						t.Errorf("shard %d admitted %d states past a 20-step wall budget", r.Shard, r.Expansions)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 2} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/shards%d/workers%d", tc.name, shards, workers), func(t *testing.T) {
					g, cfg := budgetStart(t, tc.service)
					cfg.Now = (&stepClock{}).Now
					b := tc.budget
					b.Workers = workers
					res, err := Local(LocalConfig{Shards: shards, Search: cfg, Root: g, Budget: b})
					if err != nil {
						t.Fatal(err)
					}
					tc.check(t, b, res)
				})
			}
		}
	}
}

func anyExhausted(res *Result) bool {
	for _, r := range res.PerShard {
		if r.Exhausted {
			return true
		}
	}
	return false
}
