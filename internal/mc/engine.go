package mc

import (
	"sort"
	"sync"
	"sync/atomic"

	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// sortedKeys returns a hash set's members in ascending order (differential
// oracles compare sets).
func sortedKeys(m map[uint64]struct{}) []uint64 {
	out := make([]uint64, 0, len(m))
	for h := range m {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// atomicMax raises *v to x if x is larger (CAS-max).
func atomicMax(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// collector gathers violations from all workers, deduplicating by bug-class
// signature and keeping, per signature, the representative with the
// smallest (depth, state hash). For runs bounded only by depth or
// exhaustion the reported set is therefore identical no matter how worker
// interleavings ordered the discoveries; under a Budget.Violations cutoff,
// which violating states fill the quota first — and so the reported
// membership — can still vary with >1 worker, exactly as it varies with
// the processing order of the serial checker. The quota counts violating
// *states* (every record call — each corresponds to one distinct state's
// violation onset), matching the serial checker: a search stops quickly
// once violations pile up even when they share a signature.
type collector struct {
	mu       sync.Mutex
	bySig    map[string]int
	list     []Violation
	recorded int // violating states seen, including signature duplicates
	max      int // Budget.Violations (0 = unbounded)
	// filled flips once the quota is reached; record's lock-free fast path
	// reads it so post-quota workers (which may still be draining violating
	// states from their level slices) stop serializing on the mutex.
	filled atomic.Bool
}

func newCollector(max int) *collector {
	return &collector{bySig: make(map[string]int), max: max}
}

// record merges v into the collection and reports whether the violation
// quota is now (or already was) filled.
func (c *collector) record(v Violation) (quotaFilled bool) {
	if c.filled.Load() {
		return true
	}
	sig := v.Signature()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max > 0 && c.recorded >= c.max {
		return true
	}
	c.recorded++
	if i, seen := c.bySig[sig]; seen {
		old := c.list[i]
		if v.Depth < old.Depth || (v.Depth == old.Depth && v.StateHash < old.StateHash) {
			c.list[i] = v
		}
	} else {
		c.bySig[sig] = len(c.list)
		c.list = append(c.list, v)
	}
	if c.max > 0 && c.recorded >= c.max {
		c.filled.Store(true)
		return true
	}
	return false
}

// violations returns the deduplicated set sorted by depth, then state hash,
// then signature: a total order independent of discovery interleaving.
func (c *collector) violations() []Violation {
	c.mu.Lock()
	out := make([]Violation, len(c.list))
	copy(out, c.list)
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Depth != out[j].Depth {
			return out[i].Depth < out[j].Depth
		}
		if out[i].StateHash != out[j].StateHash {
			return out[i].StateHash < out[j].StateHash
		}
		return out[i].Signature() < out[j].Signature()
	})
	return out
}

// engine is the worker-pool breadth-first explorer shared by the Exhaustive
// and Consequence strategies. Exploration is level-synchronized: all
// frontier states of depth d are expanded before any state of depth d+1.
// Within a level each worker owns a Chase-Lev deque seeded with a
// contiguous chunk of the level (LIFO local pops, FIFO steals when a chunk
// drains), so the frontier is contention-free in the common case. Successor
// states are only *proposed* during expansion — the visited-set claims
// happen in one deterministic pass at the level barrier, in (level
// position, sibling) order, so every state is claimed at its minimal BFS
// depth by the same representative path at every worker count, and a
// racing worker interleaving can never change which parent a state's
// violation path runs through. With workers == 1 the engine reproduces the
// serial breadth-first search of the paper's Figures 5 and 8 exactly,
// including expansion order.
//
// With Config.Reduce on, expansion runs the sleep-set partial-order
// reduction of reduce.go: network transitions slept by the claimed node's
// sleep set are skipped (their targets are commuting-square duplicates of
// states the sibling branch claims at the same level), and children carry
// the filtered, extended sleep sets. Because claims are deterministic at
// the barrier, the sleep set attached to a claimed state — and therefore
// the whole reduced exploration — is also identical at every worker count.
//
// The three hash sets need no locks: visited and locals are written only by
// the single-threaded barrier pass, and local is only read while a level
// expands — its claims are merged after the workers join.
type engine struct {
	s       *Search
	workers int
	prune   bool // consequence prediction's (node, local state) rule
	reduce  bool // sleep-set partial-order reduction
	red     Reducer
	bdg     *budget
	visited map[uint64]struct{}
	local   map[uint64]struct{} // consequence-prediction dedup table
	locals  map[uint64]struct{} // distinct node-local states over claimed states
	coll    *collector
	deques  []wsDeque
	// arrivals maps state hash → the claimed child of the current level
	// (reduction only): duplicate same-level proposals intersect their
	// sleep sets into the claimed child's, restoring the promises state
	// matching would otherwise break (see intersectSleep).
	arrivals map[uint64]*searchNode
	// res holds one reusable workspace per worker (index 0 doubles as the
	// serial fast path's): the property-check view and the event-enumeration
	// buffers are recycled across every state a worker processes, so the
	// per-state path allocates only for the successors it actually keeps.
	res []workerRes
	ctr counters
}

// workerRes is one worker's reusable per-state workspace.
type workerRes struct {
	view *props.View
	evb  eventBuf
	sibs []sleepKey  // explored-sibling descriptors (reduction)
	enc  *sm.Encoder // app-call fingerprint scratch (reduction)
}

func newEngine(s *Search, workers int, prune bool) *engine {
	e := &engine{
		s:       s,
		workers: workers,
		prune:   prune,
		reduce:  s.cfg.Reduce,
		red:     s.cfg.Reducer,
		bdg:     newBudget(s.cfg.Budget, s.cfg.Now),
		visited: make(map[uint64]struct{}),
		local:   make(map[uint64]struct{}),
		locals:  make(map[uint64]struct{}),
		coll:    newCollector(s.cfg.Budget.Violations),
		deques:  make([]wsDeque, workers),
		res:     make([]workerRes, workers),
	}
	for w := range e.res {
		e.res[w].view = props.NewView()
		e.res[w].enc = sm.NewEncoder()
	}
	if e.reduce {
		e.arrivals = make(map[uint64]*searchNode)
	}
	return e
}

func (e *engine) run(start *GState) *Result {
	// Encoding and hash caches are populated at state construction (AddNode
	// / ApplyEvent), so every cross-goroutine read of shared states is a
	// pure read and Hash is an O(1) lookup of the incremental fingerprint.
	e.visited[start.Hash()] = struct{}{}
	e.recordLocals(start.nodes, start.ids, nil)
	e.growFrontier(int64(start.EncodedSize()))
	level := []*searchNode{{state: start}}
	for len(level) > 0 && !e.bdg.exhausted() {
		level = e.processLevel(level)
	}

	res := &Result{
		Violations:          e.coll.violations(),
		StatesExplored:      e.bdg.statesAdmitted(),
		Transitions:         int(e.ctr.transitions.Load()),
		MaxDepthReached:     int(e.ctr.maxDepth.Load()),
		LocalPrunes:         int(e.ctr.localPrunes.Load()),
		SleepHits:           int(e.ctr.sleepHits.Load()),
		Steals:              int(e.ctr.steals.Load()),
		StealFails:          int(e.ctr.stealFails.Load()),
		DistinctLocalStates: len(e.locals),
		Elapsed:             e.bdg.elapsed(),
	}
	res.TransitionsPruned = res.SleepHits + res.LocalPrunes
	if e.s.cfg.RecordLocalStates {
		res.LocalStates = sortedKeys(e.locals)
	}
	if e.s.cfg.RecordClaimedStates {
		res.ClaimedStates = sortedKeys(e.visited)
	}
	// Hash-set entries cost roughly 16 bytes (8-byte key + bucket
	// overhead amortised); frontier states dominate at shallow depths.
	res.PeakMemoryBytes = e.ctr.peakBytes.Load() + int64(len(e.visited)+len(e.local))*16
	if res.StatesExplored > 0 {
		res.PerStateBytes = float64(res.PeakMemoryBytes) / float64(res.StatesExplored)
	}
	return res
}

// recordLocals folds newly reached node-local states into the distinct
// local-state set — the ROADMAP's coverage metric. A successor differs from
// its parent in at most the node the claiming event executed at, so claims
// record one hash; the root records every node.
func (e *engine) recordLocals(nodes map[sm.NodeID]*NodeState, ids []sm.NodeID, ev sm.Event) {
	if ev == nil {
		for _, id := range ids {
			e.locals[nodes[id].localHash()] = struct{}{}
		}
		return
	}
	if id, ok := eventNode(ev); ok {
		if ns := nodes[id]; ns != nil {
			e.locals[ns.localHash()] = struct{}{}
		}
	}
}

// eventNode returns the node whose local state an event's handler mutates
// (drops touch no node; they only remove an in-flight RST).
func eventNode(ev sm.Event) (sm.NodeID, bool) {
	switch e := ev.(type) {
	case sm.MsgEvent:
		return e.To, true
	case sm.TimerEvent:
		return e.At, true
	case sm.AppEvent:
		return e.At, true
	case sm.ResetEvent:
		return e.At, true
	case sm.ErrorEvent:
		return e.At, true
	default:
		return 0, false
	}
}

// processLevel expands every state of one BFS level and returns the next.
// Expansion only proposes children; the visited-set claims — and the
// consequence-prediction (node, local state) claims — are applied at the
// level barrier. The pruning tables therefore consult strictly earlier
// levels and the claim order is a pure function of the level's order, so
// the exploration is identical at every worker count.
func (e *engine) processLevel(level []*searchNode) []*searchNode {
	outs := make([][]*searchNode, len(level))
	claims := make([][]uint64, e.workers)
	if e.workers == 1 || len(level) == 1 {
		// Serial fast path: identical order to the paper's FIFO search.
		for i, node := range level {
			if !e.bdg.admitState() {
				break
			}
			outs[i] = e.expandNode(node, &claims[0], &e.res[0])
			if e.bdg.exhausted() {
				break
			}
		}
	} else {
		e.runLevelSteal(level, outs, claims)
	}
	for w := range claims {
		e.mergeClaims(claims[w])
	}
	return e.claimChildren(outs)
}

// runLevelSteal is the work-stealing frontier: each worker's deque is
// seeded with a contiguous chunk of the level; owners pop LIFO from their
// own deque and steal FIFO from round-robin victims once it drains.
func (e *engine) runLevelSteal(level []*searchNode, outs [][]*searchNode, claims [][]uint64) {
	chunk := (len(level) + e.workers - 1) / e.workers
	for w := 0; w < e.workers; w++ {
		lo := w * chunk
		if lo > len(level) {
			lo = len(level)
		}
		hi := lo + chunk
		if hi > len(level) {
			hi = len(level)
		}
		e.deques[w].reset(lo, hi-lo)
	}
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !e.bdg.exhausted() {
				idx, ok := e.deques[w].pop()
				if !ok {
					idx, ok = e.stealWork(w)
					if !ok {
						return
					}
				}
				if !e.bdg.admitState() {
					return
				}
				outs[idx] = e.expandNode(level[idx], &claims[w], &e.res[w])
			}
		}(w)
	}
	wg.Wait()
}

// stealWork scans the other workers' deques round-robin for an item. It
// returns ok=false only once every deque is empty; a lost CAS (the item
// went to someone else) counts as a steal failure and rescans.
func (e *engine) stealWork(w int) (int32, bool) {
	for {
		drained := true
		for off := 1; off < e.workers; off++ {
			idx, ok, raced := e.deques[(w+off)%e.workers].steal()
			if ok {
				e.ctr.steals.Add(1)
				return idx, true
			}
			if raced {
				e.ctr.stealFails.Add(1)
				drained = false
			}
		}
		if drained {
			return 0, false
		}
	}
}

// claimChildren runs the deterministic claim pass of the level barrier:
// proposed children are claimed against the visited set in (level
// position, sibling) order — exactly the serial engine's order — so the
// surviving next level, each state's representative parent path and each
// state's sleep set are worker-count independent.
//
//crystal:hotpath
func (e *engine) claimChildren(outs [][]*searchNode) []*searchNode {
	total := 0
	for _, children := range outs {
		total += len(children)
	}
	next := make([]*searchNode, 0, total)
	if e.reduce {
		clear(e.arrivals)
	}
	for _, children := range outs {
		for _, child := range children {
			h := child.state.Hash()
			if _, dup := e.visited[h]; dup {
				if e.reduce {
					if prior, ok := e.arrivals[h]; ok {
						prior.sleep = intersectSleep(prior.sleep, child.sleep)
					}
				}
				continue
			}
			e.visited[h] = struct{}{}
			if e.reduce {
				e.arrivals[h] = child
			}
			e.growFrontier(int64(child.state.EncodedSize()))
			e.recordLocals(child.state.nodes, child.state.ids, child.event)
			next = append(next, child)
		}
	}
	return next
}

func (e *engine) mergeClaims(claims []uint64) {
	for _, lh := range claims {
		e.local[lh] = struct{}{}
	}
}

func (e *engine) growFrontier(delta int64) {
	atomicMax(&e.ctr.peakBytes, e.ctr.frontierBytes.Add(delta))
}

// expandNode explores one admitted state: check properties, expand
// successors (cloning before every handler invocation, so the shared
// predecessor state is never written), and return the proposed children —
// the level barrier claims them. Consequence (node, local state) claims go
// to *claims for the level-barrier merge. res is the calling worker's
// reusable workspace: the property-check view and enumeration buffers are
// refilled per state instead of reallocated. With reduction on, network
// transitions slept by node's sleep set are skipped and each child carries
// its inherited-and-extended sleep set (reduce.go).
//
//crystal:hotpath
func (e *engine) expandNode(node *searchNode, claims *[]uint64, res *workerRes) []*searchNode {
	e.ctr.frontierBytes.Add(-int64(node.state.EncodedSize()))
	atomicMax(&e.ctr.maxDepth, int64(node.depth))

	// Report the *onset* of each violation — properties violated here but
	// not on the path so far — then keep exploring, as the paper's search
	// does: a start state that already violates one property must not
	// mask deeper, different bugs.
	pathViolated := node.violated
	node.state.FillView(res.view)
	if violated := e.s.checkProps(res.view); len(violated) > 0 {
		onset := make([]string, 0, len(violated))
		for _, p := range violated {
			if !pathViolated[p] {
				onset = append(onset, p)
			}
		}
		if len(onset) > 0 {
			if e.coll.record(Violation{
				Properties: onset,
				Path:       node.path(),
				StateHash:  node.state.Hash(),
				Depth:      node.depth,
			}) {
				e.bdg.halt()
			}
			next := make(map[string]bool, len(pathViolated)+len(onset))
			for p := range pathViolated {
				next[p] = true
			}
			for _, p := range onset {
				next[p] = true
			}
			pathViolated = next
		}
	}
	if e.bdg.lim.Depth > 0 && node.depth >= e.bdg.lim.Depth {
		return nil
	}

	var children []*searchNode
	expand := func(ev sm.Event, sleep sleepSet) bool {
		if !e.bdg.admitTransition() {
			return false
		}
		next := e.s.ApplyEvent(node.state, ev)
		if next == nil {
			e.bdg.refundTransition()
			return false
		}
		e.ctr.transitions.Add(1)
		children = append(children, &searchNode{
			state: next, parent: node, event: ev,
			depth: node.depth + 1, violated: pathViolated, sleep: sleep,
		})
		return true
	}

	network, ids, internal := e.s.enabledInto(node.state, &res.evb)
	// H_M: always process all network handlers (Figure 8 line 13) — minus,
	// under reduction, the transitions this node's sleep set proves are
	// commuting-square duplicates of a sibling branch.
	sibs := res.sibs[:0]
	for _, ev := range network {
		if !e.reduce {
			expand(ev, nil)
			continue
		}
		k, ok := e.red.Classify(ev)
		if !ok {
			// Unclassified network transition: never slept, and its
			// effects are unknown, so children start a fresh sleep set.
			expand(ev, nil)
			continue
		}
		if node.sleep.contains(k) {
			e.ctr.sleepHits.Add(1)
			continue
		}
		if expand(ev, childSleep(node.sleep, sibs, k)) {
			sibs = append(sibs, k)
		}
	}
	// H_A: internal actions, pruned per (node, local state) in
	// consequence mode (Figure 8 lines 16-20). In exhaustive mode,
	// classified internal transitions (timers, conn-breaks, app calls)
	// participate in the reduction exactly like deliveries: each executes
	// at one node and its enabledness is a function of that node's state
	// alone, so it commutes with every transition of a different class.
	// App calls are classified structurally — ModelAppCalls(n) depends
	// only on n's service state, and the (call name, EncodeCall
	// fingerprint) pair pins the exact call so aliasing between same-named
	// calls is impossible. Any other unclassified internal transition is
	// never slept and never promises, but still passes the inherited
	// entries it commutes with through to its children; resets invalidate
	// in-flight messages wholesale and clear the set (reduce.go).
	//
	// In consequence mode (e.prune), sleep promises must not cross H_A
	// edges: a promise's commuting-square closure replays the entering
	// edge from the sibling state, and an H_A edge is expanded only at the
	// FIRST state claiming its (node, local state) — by the time the
	// sibling's subtree reaches the commuted state, the local state is
	// claimed and the closure edge is pruned, never closing the square.
	// So under the consequence rule, H_A-entered children start with empty
	// sleep sets and H_A expansions never promise; H_A transitions may
	// still BE slept (their closure replays only the H_M edges the entry
	// survived). The differential oracle pins set-equality for both modes.
	for i, id := range ids {
		evs := internal[i]
		if len(evs) == 0 {
			continue
		}
		if e.prune {
			lh := node.state.nodes[id].localHash()
			if _, seen := e.local[lh]; seen {
				e.ctr.localPrunes.Add(int64(len(evs)))
				continue
			}
			*claims = append(*claims, lh)
		}
		for _, ev := range evs {
			if !e.reduce {
				expand(ev, nil)
				continue
			}
			if _, isReset := ev.(sm.ResetEvent); isReset {
				expand(ev, nil)
				continue
			}
			k, ok := e.red.Classify(ev)
			if !ok {
				if ae, isApp := ev.(sm.AppEvent); isApp {
					res.enc.Reset()
					ae.Call.EncodeCall(res.enc)
					k = sleepKey{to: ae.At, typ: ae.Call.CallName(), arg: res.enc.Hash(), kind: sleepApp}
					ok = true
				}
			}
			if !ok {
				// Unclassified internal transition: effects unknown, so
				// its children start a fresh sleep set.
				expand(ev, nil)
				continue
			}
			if node.sleep.contains(k) {
				e.ctr.sleepHits.Add(1)
				continue
			}
			if expand(ev, e.internalSleep(node.sleep, sibs, k)) && !e.prune {
				sibs = append(sibs, k)
			}
		}
	}
	res.sibs = sibs
	return children
}

// internalSleep builds the sleep set for a child entered through the
// internal (H_A) transition named by enter: the usual commuting filter in
// exhaustive mode, the empty set in consequence mode (promises cannot
// cross once-per-local-state edges; see the expandNode H_A comment).
func (e *engine) internalSleep(inherited sleepSet, siblings []sleepKey, enter sleepKey) sleepSet {
	if e.prune {
		return nil
	}
	return childSleep(inherited, siblings, enter)
}
