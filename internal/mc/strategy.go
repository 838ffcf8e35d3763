package mc

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// Strategy is a pluggable exploration algorithm. The built-in strategies —
// ExhaustiveStrategy (paper Figure 5), ConsequenceStrategy (Figure 8) and
// RandomWalkStrategy (the MaceMC comparison baseline) — all run on the
// shared worker-pool engine; custom strategies can be injected through
// Config.Strategy and drive exploration with Search.EnabledEvents and
// Search.ApplyEvent.
type Strategy interface {
	// Name identifies the strategy in logs and results.
	Name() string
	// Explore runs the algorithm from start on behalf of s, using up to
	// workers goroutines, and returns the assembled result. It must not
	// mutate start.
	Explore(s *Search, start *GState, workers int) *Result
}

// StrategyFor maps a legacy Mode to its Strategy implementation.
func StrategyFor(m Mode) Strategy {
	switch m {
	case Exhaustive:
		return ExhaustiveStrategy
	case Consequence:
		return ConsequenceStrategy
	default:
		return RandomWalkStrategy
	}
}

// Built-in strategies.
var (
	// ExhaustiveStrategy is the standard breadth-first search of paper
	// Figure 5 (the MaceMC baseline).
	ExhaustiveStrategy Strategy = bfsStrategy{name: "exhaustive"}
	// ConsequenceStrategy is the consequence-prediction algorithm of
	// paper Figure 8: breadth-first, but internal actions of a (node,
	// local state) pair are explored at most once across the search.
	ConsequenceStrategy Strategy = bfsStrategy{name: "consequence", prune: true}
	// RandomWalkStrategy repeatedly walks random enabled transitions to a
	// depth bound (MaceMC's random-walk mode, used in the paper's section
	// 5.3 comparison).
	RandomWalkStrategy Strategy = walkStrategy{}
)

// bfsStrategy implements Exhaustive and Consequence on the worker-pool
// breadth-first engine; the only difference between the two is the
// (node, local state) dedup rule guarding internal actions.
type bfsStrategy struct {
	name  string
	prune bool
}

func (b bfsStrategy) Name() string { return b.name }

func (b bfsStrategy) Explore(s *Search, start *GState, workers int) *Result {
	return newEngine(s, workers, b.prune).run(start)
}

// walkStrategy distributes cfg.Walks random walks across the worker pool.
// Each walk derives its random stream from (Seed, walk index), not from the
// worker that happens to run it, so the same walks are explored at any
// worker count.
type walkStrategy struct{}

func (walkStrategy) Name() string { return "random-walk" }

func (walkStrategy) Explore(s *Search, start *GState, workers int) *Result {
	bdg := newBudget(s.cfg.Budget, s.cfg.Now)
	coll := newCollector(s.cfg.Budget.Violations)
	// firstReport dedups reports by (violating state, signature): the same
	// state reached by different walks can carry different onsets and
	// final events, and keying on the pair keeps the recorded set
	// independent of which walk happens to arrive first. Walks run
	// concurrently, so this is the one checker hash set behind a lock; it
	// is touched only when a violation starts.
	var seenMu sync.Mutex
	seen := make(map[uint64]struct{})
	firstReport := func(key uint64) bool {
		seenMu.Lock()
		defer seenMu.Unlock()
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
		return true
	}
	var nextWalk, transitions, maxDepth atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker reusable workspace, shared by all walks this
			// goroutine runs.
			res := &workerRes{view: props.NewView()}
			for {
				walk := int(nextWalk.Add(1)) - 1
				if walk >= s.cfg.Walks || bdg.exhausted() {
					return
				}
				runWalk(s, start, walk, bdg, coll, firstReport, &transitions, &maxDepth, res)
			}
		}()
	}
	wg.Wait()

	return &Result{
		Violations:      coll.violations(),
		StatesExplored:  bdg.statesAdmitted(),
		Transitions:     int(transitions.Load()),
		MaxDepthReached: int(maxDepth.Load()),
		Elapsed:         bdg.elapsed(),
	}
}

// runWalk performs one random walk of up to cfg.WalkDepth steps, using
// res's reusable view and enumeration buffers.
func runWalk(s *Search, start *GState, walk int, bdg *budget, coll *collector,
	firstReport func(uint64) bool, transitions, maxDepth *atomic.Int64, res *workerRes) {
	// A fixed odd multiplier spreads walk indices across seed space
	// (splitmix64's golden-ratio increment).
	rng := sm.NewRand(s.cfg.Seed ^ int64(walk+1)*-0x61c8864680b583eb)
	node := &searchNode{state: start}
	walkViolated := make(map[string]bool)
	for depth := 0; depth < s.cfg.WalkDepth; depth++ {
		if !bdg.admitState() {
			return
		}
		atomicMax(maxDepth, int64(depth))
		node.state.FillView(res.view)
		if violated := s.checkProps(res.view); len(violated) > 0 {
			var onset []string
			for _, p := range violated {
				if !walkViolated[p] {
					onset = append(onset, p)
					walkViolated[p] = true
				}
			}
			if len(onset) > 0 {
				v := Violation{
					Properties: onset,
					Path:       node.path(),
					StateHash:  node.state.Hash(),
					Depth:      depth,
				}
				sigHash := fnv.New64a()
				sigHash.Write([]byte(v.Signature()))
				if firstReport(v.StateHash^sigHash.Sum64()) && coll.record(v) {
					bdg.halt()
					return
				}
			}
		}
		network, _, internal := s.enabledInto(node.state, &res.evb)
		all := res.evb.all[:0]
		all = append(all, network...)
		for i := range internal {
			all = append(all, internal[i]...)
		}
		res.evb.all = all
		if len(all) == 0 {
			return
		}
		// Try events in random order until one applies.
		perm := rng.Perm(len(all))
		var next *GState
		var chosen sm.Event
		for _, i := range perm {
			if next = s.ApplyEvent(node.state, all[i]); next != nil {
				chosen = all[i]
				break
			}
		}
		if next == nil {
			return
		}
		transitions.Add(1)
		node = &searchNode{state: next, parent: node, event: chosen, depth: node.depth + 1}
	}
}
