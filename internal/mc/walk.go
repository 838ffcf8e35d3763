package mc

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// randomWalks runs RandomWalk mode (MaceMC's random-walk baseline, used in
// the paper's section 5.3 comparison): cfg.Walks random walks spread across
// the worker pool. Each walk derives its random stream from (Seed, walk
// index), not from the worker that happens to run it, so the same walks are
// explored at any worker count.
func (s *Search) randomWalks(start *GState, workers int) *Result {
	meter := NewMeter(s.cfg.Budget, s.cfg.Now)
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
				if walk >= s.cfg.Walks || meter.Exhausted() {
					return
				}
				runWalk(s, start, walk, meter, coll, firstReport, &transitions, &maxDepth, res)
			}
		}()
	}
	wg.Wait()

	return &Result{
		Violations:      coll.violations(),
		StatesExplored:  meter.States(),
		Transitions:     int(transitions.Load()),
		MaxDepthReached: int(maxDepth.Load()),
		Elapsed:         meter.elapsed(),
	}
}

// runWalk performs one random walk of up to cfg.WalkDepth steps, using
// res's reusable view and enumeration buffers.
func runWalk(s *Search, start *GState, walk int, meter *Meter, coll *collector,
	firstReport func(uint64) bool, transitions, maxDepth *atomic.Int64, res *workerRes) {
	// A fixed odd multiplier spreads walk indices across seed space
	// (splitmix64's golden-ratio increment).
	rng := sm.NewRand(s.cfg.Seed ^ int64(walk+1)*-0x61c8864680b583eb)
	node := &searchNode{state: start}
	walkViolated := make(map[string]bool)
	for depth := 0; depth < s.cfg.WalkDepth; depth++ {
		if !meter.AdmitState() {
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
					meter.Halt()
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
