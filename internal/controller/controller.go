// Package controller implements the CrystalBall controller of the paper's
// Figure 7: it periodically collects a consistent snapshot of the node's
// neighborhood, feeds it (with the local checkpoint) to the consequence-
// prediction model checker, and acts on predicted violations.
//
// Two operating modes mirror the paper:
//
//   - DeepOnlineDebugging: predicted violations are recorded as findings;
//   - ExecutionSteering: the controller derives an event filter from the
//     earliest controllable event of the violation path ("our current
//     policy is to steer the execution as early as possible"), re-runs
//     consequence prediction with the filter applied to check the filter
//     itself is safe, and installs it into the runtime. Filters are removed
//     after every model-checking run; at the start of each run, previously
//     discovered error paths are replayed against the fresh snapshot and
//     filters are immediately reinstalled if the violation still reproduces.
//
// Because the paper runs the checker as a separate process that races the
// live system, the controller charges a configurable virtual latency per
// explored state and only delivers the checker's report after that much
// simulated time: a bug that fires before the report lands must be caught
// by the immediate safety check (or not at all), which is exactly the
// decomposition Figure 14 measures.
package controller

import (
	"fmt"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/runtime"
	"crystalball/internal/sim"
	"crystalball/internal/sm"
	"crystalball/internal/snapshot"
)

// Mode selects what the controller does with predicted violations.
type Mode int

// Controller modes (paper section 3).
const (
	// DeepOnlineDebugging only records violation reports.
	DeepOnlineDebugging Mode = iota
	// ExecutionSteering installs event filters to avoid predicted
	// violations, with the immediate safety check as a fallback.
	ExecutionSteering
)

func (m Mode) String() string {
	switch m {
	case DeepOnlineDebugging:
		return "deep-online-debugging"
	case ExecutionSteering:
		return "execution-steering"
	default:
		// An unknown mode is a configuration bug; report it instead of
		// silently rendering it as one of the real modes.
		return fmt.Sprintf("unknown-mode(%d)", int(m))
	}
}

// Config parameterises a controller.
type Config struct {
	Mode  Mode
	Props props.Set
	// GlobalProps are cross-node properties checked by every
	// consequence-prediction round alongside Props. A global violation
	// (diverged replicas, conflicting decisions) derives corrective
	// filters and steers the execution exactly as a local one does. The
	// immediate safety check stays on Props alone: ISC consults a
	// neighborhood view that is partial by construction, while global
	// properties earn their keep on the checker's complete views.
	GlobalProps props.GlobalSet
	// Factory rebuilds service instances from checkpoints.
	Factory sm.Factory
	// SnapshotInterval is the gap between model-checking rounds
	// (paper: checkpointing interval 10 s).
	SnapshotInterval time.Duration
	// Policy declares the per-round exploration budget policy: the
	// controller builds one fresh Policy instance from this spec,
	// consults Plan before every consequence-prediction round (snapshot
	// size, round number, snapshot interval) and feeds Observe the
	// round's report afterwards. Zero Base.States and Base.Violations
	// fall to the controller defaults (20,000 states, 8 violations), so a
	// zero spec is that fixed per-round budget.
	Policy mc.PolicySpec
	// PerStateCost is the virtual model-checking time charged per
	// explored state; the report arrives only after the total latency.
	PerStateCost time.Duration
	// ExploreResets lets the checker consider node-reset faults.
	ExploreResets bool
	// ExploreConnBreaks lets the checker consider spontaneous
	// connection-break faults (the Chord Figure 10 class hinges on
	// them).
	ExploreConnBreaks bool
	// MaxResetsPerPath bounds resets along one predicted path (0 =
	// checker default).
	MaxResetsPerPath int
	// Reduce enables sleep-set partial-order reduction in the
	// consequence-prediction rounds (mc.Config.Reduce). The reduced
	// search claims the identical state set and reports the identical
	// violations — it just executes fewer handler calls to get there —
	// so predictions, filters and the virtual round latency (which is
	// charged per explored state) are unchanged; only host wall time
	// drops. Scenario.Reduction is the per-scenario default.
	Reduce bool
	// EnableISC turns on the immediate safety check as a fallback.
	EnableISC bool
	// CheckFilterSafety re-runs consequence prediction with a candidate
	// filter before installing it (ablation: disable to measure the
	// paper's safety argument).
	CheckFilterSafety bool
	// ReplayPaths replays previously found error paths at the start of
	// each round to quickly reinstall still-relevant filters.
	ReplayPaths bool
	// MaxStoredPaths bounds remembered error paths.
	MaxStoredPaths int
	// Seed drives checker determinism.
	Seed int64
	// CheckRound, if set, replaces the embedded consequence-prediction
	// engine for the full per-round run (the filter-safety recheck and
	// path replay still use the embedded engine). It exists so the round
	// can *fail*: the paper runs the checker as a separate process, and a
	// separate process can crash, wedge, or time out. A nil error with a
	// nil result counts as a failure too. When a round fails, the
	// controller degrades to conservative mode — see Stats — instead of
	// blocking the snapshot loop or dropping its installed filters.
	CheckRound func(mc.Config, *mc.GState) (*mc.Result, error)
}

// DefaultConfig returns the configuration used across the experiments.
func DefaultConfig(ps props.Set, factory sm.Factory) Config {
	return Config{
		Mode:              DeepOnlineDebugging,
		Props:             ps,
		Factory:           factory,
		SnapshotInterval:  10 * time.Second,
		PerStateCost:      300 * time.Microsecond,
		ExploreResets:     true,
		EnableISC:         true,
		CheckFilterSafety: true,
		ReplayPaths:       true,
		MaxStoredPaths:    16,
	}
}

// defaultMCStates and defaultMaxViolations are the per-round state budget
// and violation quota every policy base inherits unless it sets its own.
const (
	defaultMCStates      = 20000
	defaultMaxViolations = 8
)

// policySpec resolves the controller's budget-policy spec: the declared
// spec with zero Base fields filled from the controller defaults.
func (c *Config) policySpec() mc.PolicySpec {
	spec := c.Policy
	if spec.Base.States == 0 {
		spec.Base.States = defaultMCStates
	}
	if spec.Base.Violations == 0 {
		spec.Base.Violations = defaultMaxViolations
	}
	return spec
}

// Finding is one recorded violation prediction.
type Finding struct {
	Properties []string
	Path       []sm.Event
	Hash       uint64
	FoundAt    sim.Time
	// Filter is the corrective action chosen (nil when none exists or
	// in debugging mode).
	Filter *sm.Filter
}

// Signature identifies the finding's bug class for deduplication: the
// violated properties plus the kind of the path's final event (handler at
// fault), with node identities stripped so the same bug found at different
// nodes counts once.
func (f Finding) Signature() string {
	sig := ""
	for _, p := range f.Properties {
		sig += p + "|"
	}
	if n := len(f.Path); n > 0 {
		sig += EventKind(f.Path[n-1])
	}
	return sig
}

// EventKind renders an event's identity-free kind ("msg:Join",
// "timer:recovery", "reset", ...). It shares the checker's definition, so
// finding signatures and mc.Violation signatures agree.
func EventKind(ev sm.Event) string { return mc.EventKind(ev) }

// Stats counts controller activity; the steering experiments read these.
type Stats struct {
	Rounds              int64
	SnapshotFailures    int64
	ViolationsPredicted int64
	FiltersInstalled    int64
	SteeringUnhelpful   int64 // no corrective action, or filter deemed unsafe
	FilterUnsafe        int64 // filters rejected by the safety recheck
	ReplayReinstalls    int64
	StatesExplored      int64
	// TransitionsPruned, SleepHits, Steals and StealFails aggregate the
	// checker's partial-order-reduction and work-stealing counters over
	// all rounds (including filter-safety rechecks). Steal counts are
	// scheduling telemetry, not part of the deterministic search result.
	TransitionsPruned int64
	SleepHits         int64
	Steals            int64
	StealFails        int64
	MCVirtualTime     time.Duration
	// CheckerFailures counts checker rounds that returned an error (a
	// crashed/timed-out checker process in the paper's deployment). Each
	// failure flips the controller into conservative mode: the filters
	// installed by the last successful round stay in place — steering on
	// stale but vetted predictions — rather than expiring on the paper's
	// "after every model checking run" schedule, because the run never
	// completed. The next successful round clears and re-derives them as
	// usual.
	CheckerFailures int64
	// ConservativeRounds counts rounds the controller spent in
	// conservative mode (the failing round and every subsequent round
	// until a checker run succeeds again).
	ConservativeRounds int64
	// LastBudget is the budget the policy planned for the most recent
	// (non-skipped) round.
	LastBudget mc.Budget
	// PredictionsDelivered counts predictions handed to steering-aware
	// services (sm.SteeringAware) instead of generic filters.
	PredictionsDelivered int64
}

// Controller drives CrystalBall for one node.
type Controller struct {
	sim  *sim.Simulator
	node *runtime.Node
	mgr  *snapshot.Manager
	cfg  Config
	// policy plans each round's exploration budget and absorbs the
	// round reports; one private, stateful instance per controller.
	policy mc.Policy

	lastView *props.View
	findings []Finding
	paths    []Finding // stored error paths for replay (with filters)
	busy     bool
	lastHash uint64 // hash of the last fully-searched snapshot
	// conservative is set while the node is coasting on the previous
	// round's filters after a checker failure (Stats.CheckerFailures).
	conservative bool

	// OnViolation, if set, is called when a report with violations is
	// processed (used by experiments to observe prediction timing).
	OnViolation func(f Finding)

	Stats Stats
}

// New attaches a controller to a node. The node gets a checkpoint manager
// (snapCfg) and, if cfg.EnableISC, the immediate safety check wired to the
// controller's latest neighborhood snapshot.
func New(s *sim.Simulator, node *runtime.Node, cfg Config, snapCfg snapshot.Config) *Controller {
	policy, err := cfg.policySpec().New()
	if err != nil {
		// An unresolvable policy kind is a configuration programming
		// error (Deploy validates user-facing paths before reaching
		// here), like registering a scenario without a factory.
		panic(fmt.Sprintf("controller: %v", err))
	}
	c := &Controller{
		sim:    s,
		node:   node,
		mgr:    snapshot.NewManager(s, node, snapCfg),
		cfg:    cfg,
		policy: policy,
	}
	if cfg.EnableISC {
		node.EnableISC(cfg.Props, func() *props.View { return c.lastView })
	}
	return c
}

// Node returns the underlying runtime node.
func (c *Controller) Node() *runtime.Node { return c.node }

// Manager returns the checkpoint manager.
func (c *Controller) Manager() *snapshot.Manager { return c.mgr }

// Findings returns all recorded violation predictions.
func (c *Controller) Findings() []Finding { return c.findings }

// LastView returns the most recent decoded neighborhood snapshot.
func (c *Controller) LastView() *props.View { return c.lastView }

// Conservative reports whether the controller is currently degraded to
// conservative mode: its last checker round failed, so it is steering on
// the filters of the last successful round instead of fresh predictions.
func (c *Controller) Conservative() bool { return c.conservative }

// Start begins periodic snapshot + model-checking rounds.
func (c *Controller) Start() { c.scheduleRound(c.cfg.SnapshotInterval) }

func (c *Controller) scheduleRound(d time.Duration) {
	c.sim.After(d, c.round)
}

func (c *Controller) round() {
	if c.busy {
		c.scheduleRound(c.cfg.SnapshotInterval)
		return
	}
	c.busy = true
	neighbors := c.node.Service().Neighbors()
	c.mgr.Collect(neighbors, c.onSnapshot)
}

func (c *Controller) onSnapshot(snap *snapshot.Snapshot) {
	if snap == nil || len(snap.States) == 0 {
		c.Stats.SnapshotFailures++
		c.busy = false
		c.scheduleRound(c.cfg.SnapshotInterval)
		return
	}
	c.Stats.Rounds++
	// Decode the checkpoints into service instances; this state is both
	// the checker's start state and the ISC's evaluation context.
	start := mc.NewGState()
	view := props.NewView()
	for id, data := range snap.States {
		svc, timers, err := sm.DecodeFullState(c.cfg.Factory, id, data)
		if err != nil {
			continue
		}
		start.AddNode(id, svc, timers)
		// The view holds independent clones so later checker mutations
		// cannot alias it.
		view.Add(id, svc.Clone(), timers)
	}
	c.lastView = view

	// A snapshot identical to the last fully-searched one cannot yield
	// new predictions, so the full model-checking run is skipped — and
	// since filters are removed "after every model checking run", a
	// skipped run leaves the installed filters in place. The policy
	// neither plans nor observes a skipped round: nothing is explored,
	// so Plan calls correspond 1:1 with rounds that actually search.
	if h := start.Hash(); h == c.lastHash {
		if c.conservative {
			// A skipped run also leaves the stale filters in place, so
			// the coasting continues to be counted.
			c.Stats.ConservativeRounds++
		}
		c.busy = false
		c.scheduleRound(c.cfg.SnapshotInterval)
		return
	}

	// The policy plans this round's exploration budget from what is
	// known before the search: the round number, the snapshot's encoded
	// size and the interval the round must fit inside: the paper's
	// adaptive stop-criterion seam.
	plan := c.policy.Plan(mc.RoundInfo{
		Round:         int(c.Stats.Rounds),
		SnapshotBytes: start.EncodedSize(),
		SnapshotNodes: len(start.Nodes()),
		Interval:      c.cfg.SnapshotInterval,
	})
	c.Stats.LastBudget = plan
	searchCfg := mc.Config{
		Props:             c.cfg.Props,
		GlobalProps:       c.cfg.GlobalProps,
		Factory:           c.cfg.Factory,
		Mode:              mc.Consequence,
		Budget:            plan,
		ExploreResets:     c.cfg.ExploreResets,
		ExploreConnBreaks: c.cfg.ExploreConnBreaks,
		MaxResetsPerPath:  c.cfg.MaxResetsPerPath,
		Reduce:            c.cfg.Reduce,
		Seed:              c.cfg.Seed,
	}

	// The full consequence-prediction run executes synchronously here, in
	// host time, *before* any filter-expiry scheduling — the run consumes
	// no virtual time itself (its report is delivered after the virtual
	// latency below), so the reorder is invisible to the simulation, but
	// it means a failed run can return without touching the installed
	// filters. The paper expires filters "after every model checking
	// run"; a run that errored never completed, so the node degrades to
	// conservative mode — keeping the last successful round's filters —
	// rather than dropping its protection or blocking the snapshot loop.
	res, cerr := c.checkRound(searchCfg, start)
	if cerr == nil && res == nil {
		cerr = fmt.Errorf("checker returned no report")
	}
	if cerr != nil {
		c.Stats.CheckerFailures++
		c.Stats.ConservativeRounds++
		c.conservative = true
		// lastHash stays at the last *successful* search, so the next
		// snapshot is re-checked even if the state did not move.
		c.busy = false
		c.scheduleRound(c.cfg.SnapshotInterval)
		return
	}
	c.conservative = false

	// Step 1 (paper, "Rechecking Previously Discovered Violations"): the
	// first thing the checker does is replay stored error paths; filters
	// for paths that still violate are reinstalled near-instantly.
	var reinstall []sm.Filter
	replayStates := 0
	if c.cfg.ReplayPaths && c.cfg.Mode == ExecutionSteering {
		replayer := mc.NewSearch(searchCfg)
		for _, f := range c.paths {
			if f.Filter == nil {
				continue
			}
			replayStates += len(f.Path)
			if violated := replayer.Replay(start, f.Path); len(violated) > 0 {
				reinstall = append(reinstall, *f.Filter)
			}
		}
	}
	replayLatency := time.Duration(replayStates) * c.cfg.PerStateCost
	c.sim.After(replayLatency, func() {
		// Filters from the previous round expire now; confirmed ones
		// return immediately.
		c.node.ClearFilters()
		for _, f := range reinstall {
			c.Stats.ReplayReinstalls++
			c.Stats.FiltersInstalled++
			c.node.InstallFilter(f)
		}
	})

	c.lastHash = start.Hash()

	// Step 2: account the full run. The search already executed above but
	// its report is delivered only after the virtual model-checking
	// latency, reproducing the checker/system race.
	c.Stats.StatesExplored += int64(res.StatesExplored)
	c.observeCounters(res)
	mcLatency := replayLatency + time.Duration(res.StatesExplored)*c.cfg.PerStateCost
	c.Stats.MCVirtualTime += mcLatency
	// Feed the policy the round report. Elapsed is the virtual checker
	// latency of the run itself (the clock the checker/system race is
	// measured in), not host wall time, so adaptive planning is
	// deterministic under simulation. Workers carries the pool size the
	// engine actually resolved (a planned 0 means GOMAXPROCS) so
	// per-worker throughput estimates divide by the real count — and
	// since this virtual clock is worker-independent, the estimate then
	// makes adaptive worker growth a planned-capacity no-op here, while
	// a wall-clock deployment would see the real speedup.
	ranWith := plan
	ranWith.Workers = res.Workers
	c.policy.Observe(mc.RoundReport{
		Budget:     ranWith,
		States:     res.StatesExplored,
		Violations: len(res.Violations),
		Pruned:     res.TransitionsPruned,
		Elapsed:    time.Duration(res.StatesExplored) * c.cfg.PerStateCost,
	})
	c.sim.After(mcLatency, func() {
		c.processReport(start, searchCfg, res)
		c.busy = false
		c.scheduleRound(c.cfg.SnapshotInterval)
	})
}

func (c *Controller) processReport(start *mc.GState, searchCfg mc.Config, res *mc.Result) {
	// Different violations in one report often derive the same corrective
	// filter (one bad handler reached along several interleavings); the
	// safety verdict is cached per filter so each is checked — and
	// installed — once per round.
	verdicts := make(map[string]bool)
	installed := make(map[string]bool)
	for _, v := range res.Violations {
		c.Stats.ViolationsPredicted++
		finding := Finding{
			Properties: v.Properties,
			Path:       v.Path,
			Hash:       v.StateHash,
			FoundAt:    c.sim.Now(),
		}
		if c.cfg.Mode == ExecutionSteering {
			// A steering-aware service gets the prediction directly
			// (the paper's "special programming language exception"
			// path) and applies its own policy; otherwise fall back
			// to the generic event-filter mechanism.
			if _, aware := c.node.Service().(sm.SteeringAware); aware {
				var culprit sm.Event
				for _, ev := range v.Path {
					if ev.Node() == c.node.ID {
						culprit = ev
						break
					}
				}
				c.node.NotifyPrediction(v.Properties, culprit)
				c.Stats.PredictionsDelivered++
				c.recordFinding(finding)
				if c.OnViolation != nil {
					c.OnViolation(finding)
				}
				continue
			}
			if f, ok := c.correctiveFilter(v.Path); ok {
				key := f.String()
				safe, checked := verdicts[key]
				if !checked {
					safe = !c.cfg.CheckFilterSafety || c.filterIsSafe(start, searchCfg, f)
					verdicts[key] = safe
				}
				switch {
				case !safe:
					c.Stats.FilterUnsafe++
					c.Stats.SteeringUnhelpful++
				case installed[key]:
					// Same filter already covers this violation.
					finding.Filter = &f
				default:
					installed[key] = true
					finding.Filter = &f
					c.Stats.FiltersInstalled++
					c.node.InstallFilter(f)
				}
			} else {
				c.Stats.SteeringUnhelpful++
			}
		}
		c.recordFinding(finding)
		if c.OnViolation != nil {
			c.OnViolation(finding)
		}
	}
}

// correctiveFilter picks the earliest event of the path that this node can
// block: a message delivered to it, or one of its own timer/app events.
func (c *Controller) correctiveFilter(path []sm.Event) (sm.Filter, bool) {
	for _, ev := range path {
		if ev.Node() != c.node.ID {
			continue
		}
		if f, ok := sm.FilterForEvent(ev); ok {
			return f, true
		}
	}
	return sm.Filter{}, false
}

// checkRound runs one full consequence-prediction round through the
// configured seam, defaulting to the embedded engine (which cannot fail).
func (c *Controller) checkRound(cfg mc.Config, start *mc.GState) (*mc.Result, error) {
	if c.cfg.CheckRound != nil {
		return c.cfg.CheckRound(cfg, start)
	}
	return mc.NewSearch(cfg).Run(start), nil
}

// filterIsSafe re-runs consequence prediction with the candidate filter's
// corrective action applied; the filter is safe when no violation remains
// reachable within the budget (paper, "Ensuring Safety of Event Filter
// Actions").
func (c *Controller) filterIsSafe(start *mc.GState, searchCfg mc.Config, f sm.Filter) bool {
	cfg := searchCfg
	cfg.Filters = []sm.Filter{f}
	cfg.Budget.Violations = 1
	// The safety check is a second, cheaper pass on half the round's
	// planned state budget.
	cfg.Budget.States = searchCfg.Budget.States / 2
	res := mc.NewSearch(cfg).Run(start)
	c.Stats.StatesExplored += int64(res.StatesExplored)
	c.observeCounters(res)
	return len(res.Violations) == 0
}

// observeCounters folds one search's reduction and work-stealing counters
// into the controller stats.
func (c *Controller) observeCounters(res *mc.Result) {
	c.Stats.TransitionsPruned += int64(res.TransitionsPruned)
	c.Stats.SleepHits += int64(res.SleepHits)
	c.Stats.Steals += int64(res.Steals)
	c.Stats.StealFails += int64(res.StealFails)
}

func (c *Controller) recordFinding(f Finding) {
	c.findings = append(c.findings, f)
	if f.Filter != nil || c.cfg.Mode == DeepOnlineDebugging {
		c.paths = append(c.paths, f)
		if len(c.paths) > c.cfg.MaxStoredPaths {
			c.paths = c.paths[len(c.paths)-c.cfg.MaxStoredPaths:]
		}
	}
}

// DistinctFindings deduplicates findings by bug-class signature; the
// Table 1 experiment reports these.
func DistinctFindings(findings []Finding) []Finding {
	seen := make(map[string]bool)
	var out []Finding
	for _, f := range findings {
		sig := f.Signature()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, f)
	}
	return out
}
