package controller

import (
	"testing"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/testsvc"
)

// recordingPolicy wraps a policy and keeps every planned budget, so tests
// can watch the per-round budget trajectory of a live controller.
type recordingPolicy struct {
	inner mc.Policy
	plans []mc.Budget
}

func (r *recordingPolicy) Plan(in mc.RoundInfo) mc.Budget {
	b := r.inner.Plan(in)
	r.plans = append(r.plans, b)
	return b
}

func (r *recordingPolicy) Observe(rep mc.RoundReport) { r.inner.Observe(rep) }

// TestAdaptiveBudgetFitsSnapshotInterval is the paper's adaptive
// stop criterion end to end: with an expensive checker (1 ms of virtual
// latency per state) and a 2 s snapshot interval, the fixed 20000-state
// budget overruns every round by 10x — the report lands 20 s after the
// snapshot it was computed from. The AdaptivePolicy observes the first
// overrun and shrinks the per-round state budget until prediction
// completes within the interval; the testsvc counter state space is
// unbounded, so the checker always has more states to explore than any
// budget allows and the fit is entirely the policy's doing.
func TestAdaptiveBudgetFitsSnapshotInterval(t *testing.T) {
	const (
		perState = time.Millisecond
		interval = 2 * time.Second
		ask      = 20000
	)
	base := func() Config {
		cfg := DefaultConfig(props.Set{testsvc.CounterBelow(1 << 30)}, nil)
		cfg.SnapshotInterval = interval
		cfg.PerStateCost = perState
		cfg.ExploreResets = false
		cfg.EnableISC = false
		return cfg
	}

	// Fixed arm: every round runs the full 20000-state ask and overruns.
	fixedCfg := base()
	fixedCfg.Policy = mc.PolicySpec{Kind: mc.PolicyFixed, Base: mc.Budget{States: ask, Workers: 1}}
	s, ctrls := deployWithController(t, 2, fixedCfg)
	s.RunFor(60 * time.Second)
	c := ctrls[0]
	if c.Stats.Rounds == 0 {
		t.Fatal("fixed arm ran no rounds")
	}
	if got := c.Stats.LastBudget.States; got != ask {
		t.Fatalf("fixed arm budget = %d, want %d", got, ask)
	}
	fixedPerRound := time.Duration(c.Stats.StatesExplored/c.Stats.Rounds) * perState
	if fixedPerRound <= interval {
		t.Fatalf("fixed arm per-round checking %v did not overrun the %v interval — scenario too small",
			fixedPerRound, interval)
	}

	// Adaptive arm: same ask, same checker cost; the policy must shrink
	// the budget so rounds land inside the interval.
	rec := &recordingPolicy{inner: &mc.AdaptivePolicy{
		Base:       mc.Budget{States: ask, Workers: 1, Violations: 8},
		MaxWorkers: 1, // virtual checker latency is worker-independent
	}}
	adaptCfg := base()
	adaptCfg.Policy = mc.PolicySpec{Make: func() mc.Policy { return rec }}
	s2, ctrls2 := deployWithController(t, 1, adaptCfg)
	s2.RunFor(60 * time.Second)
	c2 := ctrls2[0]
	if len(rec.plans) < 2 {
		t.Fatalf("adaptive arm planned only %d rounds", len(rec.plans))
	}
	if rec.plans[0].States != ask {
		t.Fatalf("adaptive first round budget = %d, want the %d ask", rec.plans[0].States, ask)
	}
	for i, plan := range rec.plans[1:] {
		if plan.States >= ask {
			t.Fatalf("round %d: adaptive budget %d did not shrink below the %d ask", i+2, plan.States, ask)
		}
		if fit := time.Duration(plan.States) * perState; fit > interval {
			t.Fatalf("round %d: planned budget %d states = %v of checking, exceeds the %v interval",
				i+2, plan.States, fit, interval)
		}
	}
	if got := c2.Stats.LastBudget; got.States >= ask {
		t.Fatalf("final adaptive budget %d never shrank", got.States)
	}
	// The adaptive arm completes more rounds in the same virtual time
	// than the overrunning fixed arm at the same per-state cost.
	if c2.Stats.Rounds <= c.Stats.Rounds {
		t.Fatalf("adaptive arm completed %d rounds, fixed arm %d — shrinking bought nothing",
			c2.Stats.Rounds, c.Stats.Rounds)
	}
}

// TestAdaptiveBudgetGrowsWhenCheap: with a cheap checker (10 us per state)
// and a small first-round budget, the policy grows the per-round budget
// beyond its base once it observes the available headroom.
func TestAdaptiveBudgetGrowsWhenCheap(t *testing.T) {
	rec := &recordingPolicy{inner: &mc.AdaptivePolicy{
		Base:       mc.Budget{States: 500, Workers: 1, Violations: 8},
		MaxWorkers: 1,
	}}
	cfg := DefaultConfig(props.Set{testsvc.CounterBelow(1 << 30)}, nil)
	cfg.SnapshotInterval = 2 * time.Second
	cfg.PerStateCost = 10 * time.Microsecond
	cfg.ExploreResets = false
	cfg.EnableISC = false
	cfg.Policy = mc.PolicySpec{Make: func() mc.Policy { return rec }}
	s, _ := deployWithController(t, 1, cfg)
	s.RunFor(30 * time.Second)
	if len(rec.plans) < 2 {
		t.Fatalf("planned only %d rounds", len(rec.plans))
	}
	grown := false
	for _, plan := range rec.plans[1:] {
		if plan.States > 500 {
			grown = true
		}
		// Growth must still respect the interval.
		if fit := time.Duration(plan.States) * cfg.PerStateCost; fit > cfg.SnapshotInterval {
			t.Fatalf("grown budget %d states = %v of checking, exceeds the %v interval",
				plan.States, fit, cfg.SnapshotInterval)
		}
	}
	if !grown {
		t.Fatalf("budget never grew past the 500-state base: %v", rec.plans)
	}
}
