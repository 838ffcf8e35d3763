package mc

import (
	"sync/atomic"
	"time"
)

// counters is the engine's shared telemetry block: exact atomic tallies of
// work done (transitions executed), work avoided (consequence local prunes,
// sleep-set hits) and the frontier's footprint. Every field is a
// deterministic function of the search configuration; deque steal traffic
// is scheduling telemetry and lives on the Pool.
type counters struct {
	transitions   atomic.Int64
	localPrunes   atomic.Int64
	sleepHits     atomic.Int64
	maxDepth      atomic.Int64
	frontierBytes atomic.Int64
	peakBytes     atomic.Int64
}

// Meter is the shared, atomically-updated budget accounting for one search
// run — the engine's, the random walk's, and each distributed shard's per
// round. Every worker consults it before admitting a state; the counters
// are exact (a rejected admission is rolled back), so bounded runs never
// overshoot regardless of worker count.
type Meter struct {
	lim      Budget
	now      func() time.Time // injected clock (Config.Now)
	began    time.Time
	deadline time.Time // zero when Wall is unbounded
	states   atomic.Int64
	halted   atomic.Bool
}

// NewMeter starts the accounting clock by reading now once (nil =
// time.Now); the same injected clock serves the Wall deadline checks and
// Result.Elapsed, so a fake clock exercises wall-budget expiry
// deterministically.
func NewMeter(lim Budget, now func() time.Time) *Meter {
	if now == nil {
		now = time.Now
	}
	m := &Meter{lim: lim, now: now, began: now()}
	if lim.Wall > 0 {
		m.deadline = m.began.Add(lim.Wall)
	}
	return m
}

// elapsed reports the wall time consumed so far, per the injected clock.
func (m *Meter) elapsed() time.Duration { return m.now().Sub(m.began) }

// AdmitState atomically claims one unit of the state budget; it returns
// false when the budget (states or wall clock) is exhausted.
func (m *Meter) AdmitState() bool {
	if m.halted.Load() {
		return false
	}
	if !m.deadline.IsZero() && m.now().After(m.deadline) {
		m.halted.Store(true)
		return false
	}
	if n := m.states.Add(1); m.lim.States > 0 && n > int64(m.lim.States) {
		m.states.Add(-1)
		m.halted.Store(true)
		return false
	}
	return true
}

// Halt marks the budget exhausted (e.g. the violation quota filled).
func (m *Meter) Halt() { m.halted.Store(true) }

// Exhausted reports whether some bound tripped.
func (m *Meter) Exhausted() bool { return m.halted.Load() }

// States returns the number of states admitted so far.
func (m *Meter) States() int { return int(m.states.Load()) }
