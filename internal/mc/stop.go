package mc

import (
	"sync/atomic"
	"time"
)

// counters is the engine's shared telemetry block: exact atomic tallies of
// work done (transitions executed), work avoided (consequence local prunes,
// sleep-set hits) and work moved (deque steals and failed steal attempts).
// Transitions, prunes and depth are deterministic functions of the search
// configuration; steals and steal failures are scheduling telemetry and are
// excluded from the determinism contracts.
type counters struct {
	transitions   atomic.Int64
	localPrunes   atomic.Int64
	sleepHits     atomic.Int64
	steals        atomic.Int64
	stealFails    atomic.Int64
	maxDepth      atomic.Int64
	frontierBytes atomic.Int64
	peakBytes     atomic.Int64
}

// budget is the shared, atomically-updated accounting for one search run.
// Every worker consults it before admitting a state; the counters are exact
// (a rejected admission is rolled back), so bounded runs never overshoot
// regardless of worker count.
type budget struct {
	lim         Budget
	now         func() time.Time // injected clock (Config.Now)
	began       time.Time
	deadline    time.Time // zero when Wall is unbounded
	states      atomic.Int64
	transitions atomic.Int64
	halted      atomic.Bool
}

// newBudget starts the accounting clock by reading now once; the same
// injected clock serves the Wall deadline checks and Result.Elapsed, so a
// fake clock exercises wall-budget expiry deterministically.
func newBudget(lim Budget, now func() time.Time) *budget {
	if now == nil {
		now = time.Now
	}
	b := &budget{lim: lim, now: now, began: now()}
	if lim.Wall > 0 {
		b.deadline = b.began.Add(lim.Wall)
	}
	return b
}

// elapsed reports the wall time consumed so far, per the injected clock.
func (b *budget) elapsed() time.Duration { return b.now().Sub(b.began) }

// admitState atomically claims one unit of the state budget; it returns
// false when the budget (states or wall clock) is exhausted.
func (b *budget) admitState() bool {
	if b.halted.Load() {
		return false
	}
	if !b.deadline.IsZero() && b.now().After(b.deadline) {
		b.halted.Store(true)
		return false
	}
	if n := b.states.Add(1); b.lim.States > 0 && n > int64(b.lim.States) {
		b.states.Add(-1)
		b.halted.Store(true)
		return false
	}
	return true
}

// admitTransition atomically claims one unit of the transition budget; it
// returns false when the Transitions bound is exhausted (after rolling the
// claim back, so the count is exact). Serial runs stop at a deterministic
// transition prefix; with several workers which expansions land inside the
// budget varies with scheduling, like every non-depth cutoff.
func (b *budget) admitTransition() bool {
	if b.lim.Transitions <= 0 {
		return !b.halted.Load()
	}
	if b.halted.Load() {
		return false
	}
	if n := b.transitions.Add(1); n > int64(b.lim.Transitions) {
		b.transitions.Add(-1)
		b.halted.Store(true)
		return false
	}
	return true
}

// refundTransition returns one admitted unit (the event turned out to be
// inapplicable — no handler ran).
func (b *budget) refundTransition() {
	if b.lim.Transitions > 0 {
		b.transitions.Add(-1)
	}
}

// halt marks the budget exhausted (e.g. the violation quota filled).
func (b *budget) halt() { b.halted.Store(true) }

// exhausted reports whether some bound tripped.
func (b *budget) exhausted() bool { return b.halted.Load() }

// statesAdmitted returns the number of states admitted so far.
func (b *budget) statesAdmitted() int { return int(b.states.Load()) }
