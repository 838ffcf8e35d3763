package mc

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// This file is the checker's resource-control surface: a Budget value (the
// per-Explore envelope the paper calls the stop criterion, plus the worker
// count that spends it) and a Policy that decides each round's Budget from
// feedback. The policy seam is what separates exploration *policy* from the
// search engine — the split MODIST and MaceMC draw, and the one the paper's
// "adaptive" stop criterion needs: consequence prediction must fit inside a
// live snapshot interval, and only a per-round policy watching snapshot
// sizes and past throughput can size the search to do so.

// Budget is the resource envelope for one exploration: the search stops when
// any non-zero bound is reached, and Workers goroutines spend the budget.
// The zero value of a field means unbounded (Workers: GOMAXPROCS).
type Budget struct {
	// States bounds explored states.
	States int
	// Depth bounds search depth.
	Depth int
	// Wall bounds wall-clock time.
	Wall time.Duration
	// Violations stops the search after this many distinct violating
	// states; the reported list is additionally deduplicated by
	// Signature.
	Violations int
	// Transitions bounds executed handler invocations — a deterministic
	// stand-in for wall clock (per-state cost is dominated by handler
	// execution), and the axis partial-order reduction stretches: at an
	// equal transition budget a reduced search penetrates deeper.
	Transitions int
	// Workers is the exploration worker-pool size (0 = GOMAXPROCS). With
	// one worker the breadth-first strategies reproduce the paper's
	// serial search exactly.
	Workers int
}

// RoundInfo is what a Policy sees before planning a model-checking round.
type RoundInfo struct {
	// Round is the 1-based round number at the planning controller.
	Round int
	// SnapshotBytes is the encoded size of the snapshot the round
	// explores from (GState.EncodedSize).
	SnapshotBytes int
	// SnapshotNodes is the number of nodes in the snapshot.
	SnapshotNodes int
	// Interval is the snapshot interval the round must fit inside (the
	// gap until the next round's snapshot; 0 = untimed, offline use).
	Interval time.Duration
}

// RoundReport is the post-round feedback a Policy observes. Elapsed is
// whatever clock governs the checker/system race at the caller: the live
// controller feeds the virtual model-checking latency (explored states x
// per-state cost), so planning stays deterministic under simulation; a
// wall-clock deployment would feed real elapsed time.
type RoundReport struct {
	// Budget is the budget the round ran with — as planned, except that
	// Workers must be the worker count the engine actually resolved
	// (Result.Workers), never the planned 0 = GOMAXPROCS placeholder:
	// per-worker throughput estimates divide by it.
	Budget Budget
	// States is the number of states the round actually explored.
	States int
	// Violations is the number of violations the round reported.
	Violations int
	// Pruned is the number of transitions the round skipped as provably
	// redundant (Result.TransitionsPruned: sleep-set hits plus local-state
	// prunes). States counts only what was actually explored, so the
	// states/sec signal adaptive policies smooth stays honest under
	// partial-order reduction — Pruned is reported separately for
	// policies (or telemetry) that want effective coverage, which is
	// States' worth of claims bought with States+Pruned's worth of
	// candidate transitions.
	Pruned int
	// Elapsed is the round's exploration time (see type comment).
	Elapsed time.Duration
}

// Policy decides each model-checking round's Budget from feedback. Plan is
// consulted before a round with what is known about the snapshot; Observe
// is fed the round's report afterwards. Implementations must be
// deterministic functions of their observation history — no wall-clock or
// other ambient reads inside Plan or Observe (time flows in through
// RoundReport.Elapsed) — and both methods must be allocation-free: they run
// on the controller's round hot path (policy_test.go pins both properties).
//
// Policies are stateful and not safe for concurrent use: give each
// controller its own instance (PolicySpec.New builds fresh ones).
type Policy interface {
	// Plan returns the budget for the upcoming round.
	Plan(RoundInfo) Budget
	// Observe feeds back the report of the round that just ran.
	Observe(RoundReport)
}

// FixedPolicy returns the same budget every round and ignores feedback: the
// paper-faithful default (every FixedPolicy round explores exactly what a
// direct search with the same Budget explores, at every worker count).
type FixedPolicy struct {
	Budget Budget
}

// Plan implements Policy.
func (p *FixedPolicy) Plan(RoundInfo) Budget { return p.Budget }

// Observe implements Policy.
func (p *FixedPolicy) Observe(RoundReport) {}

// DefaultRefBytes is ScaledPolicy's reference snapshot size: a snapshot
// encoding to exactly this many bytes gets Base.States states.
const DefaultRefBytes = 4096

// ScaledPolicy scales the state budget inversely with snapshot size:
// per-state exploration cost (encoding, hashing, cloning) grows with the
// snapshot's encoded size, so holding states x bytes roughly constant holds
// the round's work — and so its duration — roughly constant as the
// neighborhood grows. Plan returns Base with States replaced by
// Base.States x RefBytes / SnapshotBytes, clamped to [MinStates, MaxStates].
type ScaledPolicy struct {
	// Base is the budget template; Base.States is the budget at a
	// RefBytes-sized snapshot.
	Base Budget
	// RefBytes is the reference snapshot size (0 = DefaultRefBytes).
	RefBytes int
	// MinStates / MaxStates clamp the scaled budget
	// (0 = Base.States/8 and Base.States*8 respectively).
	MinStates int
	MaxStates int
}

// Plan implements Policy.
//
//crystal:hotpath
func (p *ScaledPolicy) Plan(in RoundInfo) Budget {
	b := p.Base
	if b.States <= 0 || in.SnapshotBytes <= 0 {
		return b
	}
	ref := p.RefBytes
	if ref <= 0 {
		ref = DefaultRefBytes
	}
	lo, hi := p.MinStates, p.MaxStates
	if lo <= 0 {
		lo = b.States / 8
		if lo < 1 {
			lo = 1
		}
	}
	if hi <= 0 {
		hi = b.States * 8
	}
	// The ceiling wins a floor/ceiling conflict: a derived floor
	// (Base.States/8) must never override an explicit MaxStates cap.
	if lo > hi {
		lo = hi
	}
	b.States = clampInt(int(int64(b.States)*int64(ref)/int64(in.SnapshotBytes)), lo, hi)
	return b
}

// Observe implements Policy.
func (p *ScaledPolicy) Observe(RoundReport) {}

// AdaptivePolicy is the paper's adaptive stop criterion: it keeps an EWMA of
// observed per-worker states/sec and sizes each round to finish within
// TargetFraction of the snapshot interval. Two levers move together:
//
//   - Workers grows (up to MaxWorkers) when the single-worker throughput
//     estimate cannot reach Base.States — the coverage ask — inside the
//     target window, so prediction lands inside the interval;
//   - States becomes the predicted capacity of the chosen worker count over
//     the target window, clamped to [MinStates, MaxStates] — shrinking
//     below Base.States when even MaxWorkers cannot keep up, and growing
//     beyond it when throughput allows deeper rounds at no deadline risk.
//
// The first round (no feedback yet) and untimed rounds (Interval 0) run on
// Base unchanged. Plan and Observe read no clock — time reaches the policy
// only through RoundReport.Elapsed — so a fixed report sequence always
// yields the same budget sequence.
type AdaptivePolicy struct {
	// Base is the first-round budget and the coverage ask for worker
	// sizing; Base.Wall/Depth/Violations pass through every plan.
	Base Budget
	// TargetFraction of the snapshot interval to fill (0 = 0.5).
	TargetFraction float64
	// Alpha is the EWMA smoothing factor in (0, 1] (0 = 0.3).
	Alpha float64
	// MaxWorkers caps worker growth (0 = max(Base.Workers, GOMAXPROCS)).
	MaxWorkers int
	// MinStates / MaxStates clamp planned budgets
	// (0 = 64 and Base.States*16 respectively).
	MinStates int
	MaxStates int

	// rate is the EWMA estimate of per-worker states/sec; have flips
	// after the first observation.
	rate float64
	have bool
}

func (p *AdaptivePolicy) targetFraction() float64 {
	if p.TargetFraction > 0 {
		return p.TargetFraction
	}
	return 0.5
}

// Rate returns the current per-worker states/sec estimate (0 until the
// first observation); experiments report it.
func (p *AdaptivePolicy) Rate() float64 { return p.rate }

// Plan implements Policy.
//
//crystal:hotpath
func (p *AdaptivePolicy) Plan(in RoundInfo) Budget {
	b := p.Base
	if !p.have || in.Interval <= 0 || p.rate <= 0 {
		return b
	}
	target := p.targetFraction() * in.Interval.Seconds()
	if target <= 0 {
		return b
	}
	maxW := p.MaxWorkers
	if maxW <= 0 {
		maxW = runtime.GOMAXPROCS(0)
		if b.Workers > maxW {
			maxW = b.Workers
		}
	}
	// Workers: enough that the coverage ask fits the window, if possible.
	w := 1
	if b.States > 0 {
		w = clampInt(int(math.Ceil(float64(b.States)/(p.rate*target))), 1, maxW)
	}
	// States: what the chosen pool is predicted to explore in the window.
	lo, hi := p.MinStates, p.MaxStates
	if lo <= 0 {
		lo = 64
	}
	if hi <= 0 {
		hi = b.States * 16
		if hi <= 0 {
			hi = 1 << 20
		}
	}
	// The ceiling wins a floor/ceiling conflict: the derived 64-state
	// floor must never override an explicit (or tiny derived) cap.
	if lo > hi {
		lo = hi
	}
	b.States = clampInt(int(p.rate*float64(w)*target), lo, hi)
	b.Workers = w
	return b
}

// Observe implements Policy.
//
//crystal:hotpath
func (p *AdaptivePolicy) Observe(r RoundReport) {
	if r.States <= 0 || r.Elapsed <= 0 {
		return
	}
	w := r.Budget.Workers
	if w <= 0 {
		w = 1
	}
	perWorker := float64(r.States) / r.Elapsed.Seconds() / float64(w)
	if !p.have {
		p.rate = perWorker
		p.have = true
		return
	}
	alpha := p.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	p.rate = alpha*perWorker + (1-alpha)*p.rate
}

// Built-in policy kind names, accepted by PolicySpec.Kind and the CLIs'
// -policy flags.
const (
	PolicyFixed    = "fixed"
	PolicyScaled   = "scaled"
	PolicyAdaptive = "adaptive"
)

// PolicyKinds lists the built-in policy kinds (CLI help and errors).
func PolicyKinds() []string { return []string{PolicyFixed, PolicyScaled, PolicyAdaptive} }

// PolicySpec declaratively describes a budget policy: pure data that can
// sit in a scenario registration or a controller config and be copied
// freely. New builds a fresh Policy instance per call — policies are
// stateful (EWMA history), so instances must never be shared across
// controllers.
type PolicySpec struct {
	// Kind selects the built-in: "fixed" (default when empty), "scaled"
	// or "adaptive".
	Kind string
	// Base is the budget template every built-in starts from.
	Base Budget
	// TargetFraction tunes AdaptivePolicy (0 = 0.5).
	TargetFraction float64
	// Alpha tunes AdaptivePolicy's EWMA (0 = 0.3).
	Alpha float64
	// RefBytes tunes ScaledPolicy (0 = DefaultRefBytes).
	RefBytes int
	// MinStates / MaxStates clamp scaled and adaptive plans (0 = kind
	// defaults).
	MinStates int
	MaxStates int
	// MaxWorkers caps AdaptivePolicy's worker growth (0 = kind default).
	MaxWorkers int
	// Make, when set, overrides Kind with a custom constructor; it must
	// return a fresh Policy per call.
	Make func() Policy
}

// New builds a fresh policy instance from the spec; it fails on an unknown
// Kind.
func (s PolicySpec) New() (Policy, error) {
	if s.Make != nil {
		return s.Make(), nil
	}
	switch s.Kind {
	case "", PolicyFixed:
		return &FixedPolicy{Budget: s.Base}, nil
	case PolicyScaled:
		return &ScaledPolicy{
			Base:      s.Base,
			RefBytes:  s.RefBytes,
			MinStates: s.MinStates,
			MaxStates: s.MaxStates,
		}, nil
	case PolicyAdaptive:
		return &AdaptivePolicy{
			Base:           s.Base,
			TargetFraction: s.TargetFraction,
			Alpha:          s.Alpha,
			MaxWorkers:     s.MaxWorkers,
			MinStates:      s.MinStates,
			MaxStates:      s.MaxStates,
		}, nil
	default:
		return nil, fmt.Errorf("unknown policy kind %q (have %v)", s.Kind, PolicyKinds())
	}
}

// MustNew is New for specs that are static configuration (CLIs after flag
// validation, tests); it panics on an unknown Kind.
func (s PolicySpec) MustNew() Policy {
	p, err := s.New()
	if err != nil {
		panic(err)
	}
	return p
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if hi > 0 && v > hi {
		return hi
	}
	return v
}
