package mc

import (
	"runtime"
	"sync/atomic"
	"time"

	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// Mode selects the built-in exploration algorithm (see Strategy for the
// pluggable form; StrategyFor maps one to the other).
type Mode int

// Exploration modes.
const (
	// Exhaustive is the standard breadth-first search of paper Figure 5
	// (the MaceMC baseline).
	Exhaustive Mode = iota
	// Consequence is the consequence-prediction algorithm of paper
	// Figure 8: breadth-first, but internal actions of a (node, local
	// state) pair are explored at most once across the entire search.
	Consequence
	// RandomWalk repeatedly walks random enabled transitions to a depth
	// bound (MaceMC's random-walk mode, used in the paper's section 5.3
	// comparison).
	RandomWalk
)

func (m Mode) String() string { return StrategyFor(m).Name() }

// Config parameterises a search.
type Config struct {
	// Props are the safety properties to check on every explored state.
	Props props.Set
	// GlobalProps are the cross-node properties checked on the same view,
	// right after Props. Their violations flow through the identical
	// onset/dedup machinery, so filters and steering react to a diverged
	// replica pair exactly as they do to a local invariant break. Empty on
	// scenarios that declare none — the checker's behavior (and output) is
	// then bit-for-bit unchanged.
	GlobalProps props.GlobalSet
	// Factory creates fresh service instances for reset nodes.
	Factory sm.Factory
	// Mode selects the algorithm.
	Mode Mode
	// Strategy, when non-nil, overrides Mode with a custom exploration
	// algorithm.
	Strategy Strategy
	// Budget is the search's resource envelope: states, depth, wall
	// clock, violations, transitions and workers in one value — what a
	// Policy plans per round and what the engine and every strategy
	// consume. Budget.Workers == 0 means GOMAXPROCS.
	Budget Budget
	// ExploreResets enables node-reset fault transitions.
	ExploreResets bool
	// MaxResetsPerPath bounds resets along a single path (default 1).
	MaxResetsPerPath int
	// ExploreConnBreaks adds spontaneous connection-break transitions: a
	// node observes a transport error for one of its neighbors without a
	// preceding reset. The paper treats transport errors as ordinary
	// messages "generated and processed by message handlers", and
	// several Chord scenarios (Figure 10) hinge on them.
	ExploreConnBreaks bool
	// Filters are event filters assumed installed; matching message
	// events are replaced by the filter's corrective action. Used by the
	// steering filter-safety check (paper: "upon encountering an
	// inconsistency, we allow consequence prediction to pursue actions
	// that an event filter could perform").
	Filters []sm.Filter
	// WalkDepth and Walks parameterise RandomWalk mode.
	WalkDepth int
	Walks     int
	// Seed drives deterministic handler randomness.
	Seed int64
	// Reduce enables dynamic partial-order reduction: sleep sets over
	// commuting transitions (independence per reduce.go's dependent —
	// different target nodes, disjoint RST queues) prune expansions whose
	// targets are provably duplicates of states a sibling branch reaches
	// at the same BFS level. The claimed-state set, the violations and
	// the distinct local-state set are identical to the unreduced search;
	// only redundant handler executions are skipped. Applies to the
	// breadth-first strategies (Exhaustive, Consequence).
	Reduce bool
	// Reducer overrides the independence oracle consulted when Reduce is
	// on (nil = DeliveryIndependence).
	Reducer Reducer
	// RecordLocalStates asks the breadth-first engine to return the
	// sorted set of distinct node-local state hashes it claimed
	// (Result.LocalStates); differential oracles compare the sets.
	RecordLocalStates bool
	// RecordClaimedStates asks the breadth-first engine to return the
	// sorted set of state fingerprints it claimed into the visited set
	// (Result.ClaimedStates). The distributed-search differential oracle
	// compares this set against the union of the shards' claims.
	RecordClaimedStates bool
	// Now is the clock the wall budget (Budget.Wall) and Result.Elapsed
	// read (nil = time.Now). Injecting a fake clock makes wall-budget
	// expiry unit-testable; it is the only wall-clock access in the
	// checker, keeping everything else a deterministic function of the
	// configuration.
	Now func() time.Time
}

func (c *Config) defaults() {
	if c.MaxResetsPerPath == 0 {
		c.MaxResetsPerPath = 1
	}
	if c.WalkDepth == 0 {
		c.WalkDepth = 60
	}
	if c.Walks == 0 {
		c.Walks = 200
	}
	if c.Reducer == nil {
		c.Reducer = DeliveryIndependence
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Budget.Workers <= 0 {
		c.Budget.Workers = runtime.GOMAXPROCS(0)
	}
}

// strategy resolves the configured exploration algorithm.
func (c *Config) strategy() Strategy {
	if c.Strategy != nil {
		return c.Strategy
	}
	return StrategyFor(c.Mode)
}

// Violation is a predicted inconsistency: the properties violated and the
// event path from the start state that reaches the violating state.
type Violation struct {
	Properties []string
	Path       []sm.Event
	StateHash  uint64
	Depth      int
}

// Signature identifies the violation's bug class for deduplication: the
// violated properties plus the kind of the path's final event (the handler
// at fault), with node identities stripped so the same bug reached along
// different interleavings — or at different nodes — counts once.
func (v Violation) Signature() string {
	sig := ""
	for _, p := range v.Properties {
		sig += p + "|"
	}
	if n := len(v.Path); n > 0 {
		sig += EventKind(v.Path[n-1])
	}
	return sig
}

// EventKind renders an event's identity-free kind ("msg:Join",
// "timer:recovery", "reset", ...).
func EventKind(ev sm.Event) string {
	switch e := ev.(type) {
	case sm.MsgEvent:
		return "msg:" + e.Msg.MsgType()
	case sm.TimerEvent:
		return "timer:" + string(e.Timer)
	case sm.AppEvent:
		return "app:" + e.Call.CallName()
	case sm.ResetEvent:
		return "reset"
	case sm.ErrorEvent:
		return "error"
	case sm.DropEvent:
		return "drop"
	default:
		return "unknown"
	}
}

// Result summarises a search. Violations are deduplicated by Signature and
// sorted by (depth, state hash, signature). For runs bounded only by depth
// or exhaustion the reported set is reproducible regardless of worker
// interleaving (the engine's level-synchronized exploration visits exactly
// the same states); under a states/wall/violations cutoff, which states
// fall inside the budget can vary with more than one worker.
type Result struct {
	Violations      []Violation
	StatesExplored  int
	Transitions     int
	MaxDepthReached int
	// PeakMemoryBytes approximates the search-tree footprint: encoded
	// frontier states plus hash-set entries (Figures 15/16).
	PeakMemoryBytes int64
	// PerStateBytes is PeakMemoryBytes / StatesExplored (Figure 16).
	PerStateBytes  float64
	Elapsed        time.Duration
	DummyRedirects int
	// LocalPrunes counts internal-action expansions skipped by the
	// consequence-prediction rule (0 in exhaustive mode).
	LocalPrunes int
	// SleepHits counts network transitions skipped by the sleep-set
	// partial-order reduction (0 unless Config.Reduce).
	SleepHits int
	// TransitionsPruned is the total expansions avoided: SleepHits plus
	// LocalPrunes. Controllers report it per round so budget policies see
	// honest per-state work.
	TransitionsPruned int
	// Steals and StealFails count work-stealing deque traffic: successful
	// steals and lost steal races. Scheduling telemetry — unlike every
	// counter above they are NOT deterministic across runs.
	Steals     int
	StealFails int
	// DistinctLocalStates counts distinct node-local states over all
	// claimed states — the ROADMAP's coverage metric ("distinct local
	// states reached per budget").
	DistinctLocalStates int
	// LocalStates is the sorted distinct local-state hash set, filled
	// only when Config.RecordLocalStates is set.
	LocalStates []uint64
	// ClaimedStates is the sorted visited-set fingerprint dump, filled
	// only when Config.RecordClaimedStates is set.
	ClaimedStates []uint64
	// Workers is the worker-pool size the search ran with.
	Workers int
}

// Search runs one exploration. Create with NewSearch, run with Run.
type Search struct {
	cfg Config
	// dummyRedirects counts messages redirected to the dummy node (sends
	// to nodes outside the snapshot); atomic because handler execution is
	// spread across the worker pool.
	dummyRedirects atomic.Int64
}

// NewSearch returns a Search for the given configuration.
func NewSearch(cfg Config) *Search {
	cfg.defaults()
	return &Search{cfg: cfg}
}

// Config returns the search's (defaulted) configuration.
func (s *Search) Config() Config { return s.cfg }

// searchNode is a frontier entry; parent links reconstruct violation paths.
// Once a node is published to the work queue every field is immutable, so
// workers may traverse parent chains freely.
type searchNode struct {
	state  *GState
	parent *searchNode
	event  sm.Event
	depth  int
	// violated carries the properties already violated along this path,
	// so the search reports each violation's *onset* exactly once and
	// keeps exploring (the paper's Figures 5 and 8 likewise continue
	// past states added to the error set).
	violated map[string]bool
	// sleep is the node's sleep set under partial-order reduction: the
	// network transitions this path has proven redundant (nil when
	// reduction is off or nothing is slept).
	sleep sleepSet
}

func (n *searchNode) path() []sm.Event {
	var rev []sm.Event
	for cur := n; cur != nil && cur.event != nil; cur = cur.parent {
		rev = append(rev, cur.event)
	}
	out := make([]sm.Event, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// filterFor returns the first installed filter matching ev, if any.
func (s *Search) filterFor(ev sm.Event) (sm.Filter, bool) {
	for _, f := range s.cfg.Filters {
		if f.Matches(ev) {
			return f, true
		}
	}
	return sm.Filter{}, false
}

// applyFiltered executes the corrective action of filter f instead of ev:
// a filtered message is dropped and, if BreakConn, an RST notification is
// queued to the sender; filtered timers are rescheduled (no state change,
// so no successor); filtered app calls are suppressed.
func (s *Search) applyFiltered(g *GState, ev sm.Event, f sm.Filter, sc *scratch) *GState {
	me, ok := ev.(sm.MsgEvent)
	if !ok {
		return nil
	}
	i := findMsg(g, me.From, me.To, me.Msg.MsgType(), false)
	if i < 0 {
		return nil
	}
	next := g.shallowClone()
	next.removeMsgAt(i, sc)
	if f.BreakConn {
		if _, known := next.nodes[me.From]; known {
			next.addMsg(InFlight{From: me.To, To: me.From, Msg: nil}, sc)
		}
	}
	return next
}

// ApplyEvent executes ev on g — honoring installed event filters — and
// returns the successor state, or nil when the event is not applicable.
// g is never mutated: handlers run on cloned node states, and all encoding
// and hash caches are populated at state construction, so ApplyEvent is
// safe to call from concurrent workers on a shared predecessor. The
// successor's fingerprint is maintained incrementally during construction,
// so its Hash is ready in O(changed components). All transient workspace —
// scratch encoder, handler context, per-edge random stream — comes from a
// pooled scratch that is released before returning, so nothing reachable
// from the successor aliases it.
func (s *Search) ApplyEvent(g *GState, ev sm.Event) *GState {
	sc := getScratch()
	var next *GState
	if f, ok := s.filterFor(ev); ok {
		next = s.applyFiltered(g, ev, f, sc)
	} else {
		next = s.apply(g, ev, sc)
	}
	putScratch(sc)
	return next
}

// Run explores from the start state and returns the result. The start
// state is not mutated.
func (s *Search) Run(start *GState) *Result {
	s.dummyRedirects.Store(0)
	res := s.cfg.strategy().Explore(s, start, s.cfg.Budget.Workers)
	res.DummyRedirects = int(s.dummyRedirects.Load())
	res.Workers = s.cfg.Budget.Workers
	return res
}

// checkProps evaluates the local property set and then, when configured,
// the global (cross-node) set against the same filled view, returning the
// combined violated names — locals first, globals after, each in
// declaration order. Every property-evaluation site in the checker (engine
// expansion, random walks, replay, the dist expander) funnels through this
// one helper, which is what keeps serial, parallel, and sharded searches
// reporting identical violation sets.
func (s *Search) checkProps(v *props.View) []string {
	violated := s.cfg.Props.Check(v)
	if len(s.cfg.GlobalProps) > 0 {
		violated = s.cfg.GlobalProps.AppendViolated(violated, props.Global(v))
	}
	return violated
}

// Replay re-executes a previously discovered error path from a (new) start
// state, following the paper's replay rule: timer and application events
// (and faults) replay directly, while message and error events replay only
// if the corresponding item is actually in flight — the service code itself
// regenerates messages, and we follow their causality. It returns the
// violated properties if the path still leads to a violation from this
// state, or nil.
func (s *Search) Replay(start *GState, path []sm.Event) []string {
	g := start
	v := props.NewView() // reused across every step of the replay
	g.FillView(v)
	if violated := s.checkProps(v); len(violated) > 0 {
		return violated
	}
	for _, ev := range path {
		next := s.ApplyEvent(g, ev)
		if next == nil {
			// Event not applicable from the new state: the path is
			// no longer feasible.
			return nil
		}
		g = next
		g.FillView(v)
		if violated := s.checkProps(v); len(violated) > 0 {
			return violated
		}
	}
	return nil
}
