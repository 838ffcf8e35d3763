package dist

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"crystalball/internal/mc"
	"crystalball/internal/sm"
)

// ShardConfig parameterises one shard of an n-way distributed search.
type ShardConfig struct {
	// Index and Shards are the shard's connection identity: which of the
	// session's worker connections it is. The hash range it owns is a
	// per-round assignment (RoundStart.Slot/Slots) — after a failure the
	// coordinator repartitions over the survivors, so identity and slot
	// are distinct concepts. A RoundStart with zero Slots defaults to the
	// identity partition.
	Index  int
	Shards int
	// Search is the scenario's checker configuration. Mode must be
	// Exhaustive; Reduce is forced off (the
	// sleep-set reduction's same-level sibling claims are coordination the
	// shards do not attempt). Every shard of a run must be built from a
	// bit-identical configuration — same seed, same fault toggles — or the
	// partitioned searches diverge.
	Search mc.Config
	// Root is the shared start state.
	Root *mc.GState
	// BatchSize is the forwarded-batch flush threshold (0 =
	// DefaultBatchSize).
	BatchSize int
}

// node is a shard-frontier entry. Parent links reconstruct paths for
// violation reports and wire forwarding; prefix replaces the chain for
// states that arrived over a wire (the descriptor path from the root).
// Once enqueued every field is immutable, so expansion workers may share
// parent chains freely.
type node struct {
	state  *mc.GState
	parent *node
	event  sm.Event
	prefix []EventDesc
	depth  int32
}

// descPath returns the full descriptor path from the root to n,
// re-describing in-process events and splicing in the wire prefix when the
// path crossed a process boundary. scratch is the fingerprint encoder.
func (n *node) descPath(scratch *sm.Encoder) []EventDesc {
	var rev []sm.Event
	cur := n
	for cur.event != nil {
		rev = append(rev, cur.event)
		cur = cur.parent
	}
	out := make([]EventDesc, 0, len(cur.prefix)+len(rev))
	out = append(out, cur.prefix...)
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, DescribeEvent(rev[i], scratch))
	}
	return out
}

// eventPath returns the real event path from the root, or nil when the
// path crossed a process boundary and only descriptors remain.
func (n *node) eventPath() []sm.Event {
	var rev []sm.Event
	cur := n
	for cur.event != nil {
		rev = append(rev, cur.event)
		cur = cur.parent
	}
	if cur.prefix != nil {
		return nil
	}
	out := make([]sm.Event, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// violationSet is dist's one violation rule. Unlike the serial engine —
// which reports each violation's path *onset* exactly once, leaning on its
// deterministic claim order — dist records the full violated property set
// of every violating state and keeps, per canonical (sorted) set, the
// minimal (depth, state hash) representative. The kept set is a pure
// function of the claimed state set, so the reported (props, depth, hash)
// triples are deterministic at any shard and worker count; representative
// paths remain scheduling telemetry. Each shard records into one per round
// from its expansion workers, and the coordinator merges the shards'
// reports through another.
type violationSet struct {
	mu    sync.Mutex
	bySig map[string]int
	list  []Violation
	nodes []*node // shard side: each kept violation's frontier node
	// recorded counts record calls (violating expansions) against max, the
	// round's quota (0 = unbounded) — an intentionally loose analogue of
	// the serial quota.
	recorded int
	max      int
}

func newViolationSet(max int) *violationSet {
	return &violationSet{bySig: make(map[string]int), max: max}
}

// record merges one violation — with its frontier node on the shard side,
// nil at the coordinator — and reports whether the quota is now (or
// already was) filled. v.Props must be sorted.
func (c *violationSet) record(v Violation, n *node) bool {
	sig := strings.Join(v.Props, "|")
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max > 0 && c.recorded >= c.max {
		return true
	}
	c.recorded++
	if i, seen := c.bySig[sig]; seen {
		old := &c.list[i]
		if v.Depth < old.Depth || (v.Depth == old.Depth && v.StateHash < old.StateHash) {
			c.list[i], c.nodes[i] = v, n
		}
	} else {
		c.bySig[sig] = len(c.list)
		c.list = append(c.list, v)
		c.nodes = append(c.nodes, n)
	}
	return c.max > 0 && c.recorded >= c.max
}

// report returns the kept violations sorted by (depth, hash, props),
// materializing each shard-side representative's descriptor path (and its
// real event path where the chain never crossed a wire).
func (c *violationSet) report(scratch *sm.Encoder) []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Violation, len(c.list))
	for i, v := range c.list {
		if n := c.nodes[i]; n != nil {
			v.Path, v.events = n.descPath(scratch), n.eventPath()
		}
		out[i] = v
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Depth != out[j].Depth {
			return out[i].Depth < out[j].Depth
		}
		if out[i].StateHash != out[j].StateHash {
			return out[i].StateHash < out[j].StateHash
		}
		return strings.Join(out[i].Props, "|") < strings.Join(out[j].Props, "|")
	})
	return out
}

// frontier is the shard's depth-bucketed work pool. Asynchronous arrivals
// mean depths interleave; scanning buckets lowest-first keeps expansion
// near breadth-first order, which minimizes re-expansions (a state
// re-arrives shallower less often when shallow work drains first).
type frontier struct {
	buckets [][]*node
	low     int
	count   int
}

func (f *frontier) push(n *node) {
	d := int(n.depth)
	for d >= len(f.buckets) {
		f.buckets = append(f.buckets, nil)
	}
	f.buckets[d] = append(f.buckets[d], n)
	if f.count == 0 || d < f.low {
		f.low = d
	}
	f.count++
}

// popBucket removes and returns the lowest non-empty bucket.
func (f *frontier) popBucket() []*node {
	for f.low < len(f.buckets) && len(f.buckets[f.low]) == 0 {
		f.low++
	}
	b := f.buckets[f.low]
	f.buckets[f.low] = nil
	f.count -= len(b)
	return b
}

func (f *frontier) clear() {
	for i := range f.buckets {
		f.buckets[i] = nil
	}
	f.count = 0
	f.low = len(f.buckets)
}

// shard is one partition's engine: the visited map for its hash range, the
// depth-bucketed frontier, the per-owner outgoing batches, and the round
// protocol state. Each depth bucket is scheduled by the checker's Pool
// under the round's Meter — the engine's level scheduler and budget
// accounting — so only the frontier, min-depth re-expansion and the
// violation rule are the shard's own. All fields except the
// expansion-phase meter, transition count and violation set are touched
// only from the shard's main goroutine.
type shard struct {
	cfg     ShardConfig
	slot    int // this round's partition slot
	slots   int // this round's partition width
	rng     mc.HashRange
	search  *mc.Search
	conn    Conn
	scratch *sm.Encoder

	// visited maps owned fingerprints to the minimal depth claimed so far;
	// a strictly shallower re-arrival re-claims and re-expands (package
	// doc: min-depth re-expansion is what restores BFS set-equality).
	visited map[uint64]int32
	// fwd is the sender-side forward cache: fingerprint → minimal depth
	// already forwarded, so a successor is re-forwarded only when
	// strictly shallower.
	fwd       map[uint64]int32
	locals    map[uint64]struct{}
	localsBuf []uint64
	fr        frontier
	out       [][]ForwardState
	res       []*mc.Expander

	meter *mc.Meter
	pool  *mc.Pool
	depth int32 // the round's depth bound (0 = unbounded)
	// transitions counts successful successor applications.
	transitions atomic.Int64
	maxDepth    int32 // deepest bucket with an admitted expansion
	vio         *violationSet
	received    int64
	record      bool
	st          Stats
	// bucket and outs are the depth bucket in flight and its proposed
	// successors, shared with the Pool's workers through expandAt — built
	// once per shard, so scheduling a bucket allocates no closure. Both
	// are cleared once the bucket is expanded: forwarded successors must
	// not outlive their batch.
	bucket   []*node
	outs     [][]*node
	expandAt func(i, w int)
	// replayed is the receiver-side replay cache: see replay.
	replayed replayCache
}

// replayCache holds the last descriptor path a shard replayed and the
// state after each of its steps (states[i] is the state path[:i+1] leads
// to). Batches list a sender's successors in expansion order, so
// consecutive forwarded paths are mostly siblings or cousins, and a replay
// that resumes from the cached state at the end of the longest common
// prefix re-executes only the steps that differ. Replay is a pure function
// of (state, descriptor), so the resumed state is the state a from-root
// replay builds.
type replayCache struct {
	path   []EventDesc
	states []*mc.GState
}

// drop empties the cache, keeping its buffers but no states.
func (c *replayCache) drop() {
	clear(c.states)
	c.path, c.states = c.path[:0], c.states[:0]
}

func newShard(conn Conn, cfg ShardConfig) (*shard, error) {
	if cfg.Shards <= 0 || cfg.Index < 0 || cfg.Index >= cfg.Shards {
		return nil, errorf("bad shard index %d of %d", cfg.Index, cfg.Shards)
	}
	if cfg.Search.Mode != mc.Exhaustive {
		return nil, errorf("distributed search supports Exhaustive mode only")
	}
	if cfg.Root == nil {
		return nil, errorf("shard %d: nil root state", cfg.Index)
	}
	cfg.Search.Reduce = false
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	sh := &shard{
		cfg:     cfg,
		slot:    cfg.Index,
		slots:   cfg.Shards,
		rng:     mc.ShardRange(cfg.Index, cfg.Shards),
		search:  mc.NewSearch(cfg.Search),
		conn:    conn,
		scratch: sm.NewEncoder(),
	}
	sh.expandAt = func(i, w int) {
		sh.outs[i] = sh.expand(sh.bucket[i], sh.res[w])
	}
	return sh, nil
}

// RunShard serves one shard over conn until Shutdown or a connection
// error. It is the body of every shard goroutine (dist.Local) and of a
// shardd worker once configured.
func RunShard(conn Conn, cfg ShardConfig) error {
	sh, err := newShard(conn, cfg)
	if err != nil {
		return err
	}
	return sh.serve()
}

func (sh *shard) serve() error {
	var pending Msg
	for {
		m := pending
		pending = nil
		if m == nil {
			var err error
			m, err = sh.conn.Recv()
			if err != nil {
				return err
			}
		}
		switch v := m.(type) {
		case RoundStart:
			if err := sh.startRound(v); err != nil {
				return sh.fault(err)
			}
			if err := sh.drainAndIdle(&pending); err != nil {
				return sh.fault(err)
			}
		case Batch:
			if err := sh.ingest(v); err != nil {
				return sh.fault(err)
			}
			if err := sh.pollBatches(&pending); err != nil {
				return sh.fault(err)
			}
			if err := sh.drainAndIdle(&pending); err != nil {
				return sh.fault(err)
			}
		case RoundEnd:
			if sh.visited == nil {
				return sh.fault(errorf("shard %d: round end outside a round", sh.cfg.Index))
			}
			if err := sh.conn.Send(sh.report()); err != nil {
				return err
			}
			sh.endRound()
		case RoundAbort:
			// A peer shard died; drop all round state and acknowledge.
			// The ack is the coordinator's barrier: FIFO order means no
			// stale batch or idle from the aborted round can follow it.
			sh.endRound()
			if err := sh.conn.Send(AbortAck{Shard: sh.cfg.Index, Round: v.Round}); err != nil {
				return err
			}
		case Ping:
			// Transport keepalive; the TCP reader normally swallows these
			// before they reach the protocol loop.
		case Shutdown:
			return nil
		default:
			return sh.fault(errorf("shard %d: unexpected %T", sh.cfg.Index, m))
		}
	}
}

// fault surfaces a shard-side fatal error to the coordinator and returns it.
func (sh *shard) fault(err error) error {
	// Best effort: the connection itself may be the problem.
	_ = sh.conn.Send(Fault{Shard: sh.cfg.Index, Err: err.Error()})
	return err
}

// startRound resets per-round state, takes this round's partition slot,
// and seeds the root if the slot's range owns its fingerprint.
func (sh *shard) startRound(rs RoundStart) error {
	sh.slot, sh.slots = rs.Slot, rs.Slots
	if rs.Slots == 0 {
		sh.slot, sh.slots = sh.cfg.Index, sh.cfg.Shards
	}
	if sh.slots <= 0 || sh.slot < 0 || sh.slot >= sh.slots {
		return errorf("shard %d: round start assigns slot %d of %d", sh.cfg.Index, rs.Slot, rs.Slots)
	}
	sh.rng = mc.ShardRange(sh.slot, sh.slots)
	b := rs.Budget
	for len(sh.res) < max(b.Workers, 1) {
		sh.res = append(sh.res, sh.search.NewExpander())
	}
	sh.meter = mc.NewMeter(b, sh.search.Config().Now)
	sh.pool = mc.NewPool(b.Workers)
	sh.depth = int32(b.Depth)
	sh.transitions.Store(0)
	sh.maxDepth = 0
	sh.vio = newViolationSet(b.Violations)
	sh.visited = make(map[uint64]int32)
	sh.fwd = make(map[uint64]int32)
	sh.locals = make(map[uint64]struct{})
	sh.fr = frontier{}
	sh.out = make([][]ForwardState, sh.slots)
	sh.received = 0
	sh.record = rs.RecordStates
	sh.st = Stats{}

	if h := sh.cfg.Root.Hash(); sh.rng.Contains(h) {
		sh.claim(&node{state: sh.cfg.Root}, h)
	}
	return nil
}

// endRound drops the round's tables so their memory is reclaimable between
// rounds.
func (sh *shard) endRound() {
	sh.visited, sh.fwd, sh.locals = nil, nil, nil
	sh.replayed.drop()
	sh.fr = frontier{}
	sh.out = nil
	sh.vio = nil
}

// claim enters a state this shard owns: record its minimal depth and every
// node-local fingerprint, and enqueue it for expansion. Recording *all*
// node-local hashes per claimed state (rather than the serial engine's
// one-changed-node-per-claim) makes the union a pure function of the
// claimed set — and since every local value in a claimed state is created
// by some claimed ancestor's edge, the union equals the serial engine's
// distinct-local-state set exactly.
func (sh *shard) claim(n *node, h uint64) {
	if prior, ok := sh.visited[h]; ok && prior <= n.depth {
		return
	}
	sh.visited[h] = n.depth
	sh.localsBuf = n.state.LocalHashes(sh.localsBuf[:0])
	for _, lh := range sh.localsBuf {
		sh.locals[lh] = struct{}{}
	}
	sh.fr.push(n)
}

// drainAndIdle runs expansion to exhaustion (or budget), flushes every
// outgoing batch, and reports idle to the coordinator. Between depth
// buckets it flushes partial batches and folds queued arrivals: flushing
// at level granularity hands peers their next wave while this shard keeps
// expanding (the overlap the scaling claim rests on), and claiming a
// shallow re-arrival now costs a map hit where the same state claimed
// after the drain would re-expand its whole subtree.
func (sh *shard) drainAndIdle(pending *Msg) error {
	for sh.fr.count > 0 {
		if sh.meter.Exhausted() {
			sh.fr.clear()
			break
		}
		bucket := sh.fr.popBucket()
		if err := sh.processBucket(bucket); err != nil {
			return err
		}
		if err := sh.flushAll(); err != nil {
			return err
		}
		if *pending == nil {
			if err := sh.pollBatches(pending); err != nil {
				return err
			}
		}
	}
	if err := sh.flushAll(); err != nil {
		return err
	}
	return sh.conn.Send(Idle{Shard: sh.slot, Received: sh.received})
}

// pollBatches ingests every already-queued batch without blocking. A
// non-batch message is stashed in *pending for the serve loop (the
// coordinator cannot legally send one while this shard is mid-drain, but
// the serve loop is where that protocol error is diagnosed).
func (sh *shard) pollBatches(pending *Msg) error {
	for {
		m, ok, err := sh.conn.TryRecv()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		b, isBatch := m.(Batch)
		if !isBatch {
			*pending = m
			return nil
		}
		if err := sh.ingest(b); err != nil {
			return err
		}
	}
}

// processBucket expands one depth bucket on the Pool — in parallel when
// the shard has more than one worker — then claims and routes the proposed
// successors in deterministic (bucket position, sibling) order.
func (sh *shard) processBucket(bucket []*node) error {
	sh.bucket, sh.outs = bucket, make([][]*node, len(bucket))
	admitted := sh.meter.States()
	sh.pool.Level(len(bucket), sh.meter, sh.expandAt)
	outs := sh.outs
	sh.bucket, sh.outs = nil, nil
	if sh.meter.States() > admitted {
		// A bucket holds one depth, so its depth was reached.
		sh.maxDepth = max(sh.maxDepth, bucket[0].depth)
	}
	for _, children := range outs {
		for _, child := range children {
			if err := sh.route(child); err != nil {
				return err
			}
		}
	}
	return nil
}

// expand explores one admitted state: check properties, then propose
// successors (unless the state sits at the depth bound). Safe to call from
// expansion workers; x is the calling worker's workspace.
func (sh *shard) expand(n *node, x *mc.Expander) []*node {
	if violated := x.Check(n.state); len(violated) > 0 {
		sort.Strings(violated)
		if sh.vio.record(Violation{Props: violated, Depth: n.depth, StateHash: n.state.Hash()}, n) {
			sh.meter.Halt()
		}
	}
	if sh.depth > 0 && n.depth >= sh.depth {
		return nil
	}
	var children []*node
	x.Events(n.state, func(ev sm.Event) {
		if sh.meter.Exhausted() {
			return
		}
		next := sh.search.ApplyEvent(n.state, ev)
		if next == nil {
			return
		}
		sh.transitions.Add(1)
		children = append(children, &node{
			state: next, parent: n, event: ev, depth: n.depth + 1,
		})
	})
	return children
}

// route claims a proposed successor locally or forwards it to its owner.
func (sh *shard) route(child *node) error {
	h := child.state.Hash()
	if sh.rng.Contains(h) {
		sh.claim(child, h)
		return nil
	}
	if prior, ok := sh.fwd[h]; ok && prior <= child.depth {
		return nil
	}
	sh.fwd[h] = child.depth
	owner := mc.ShardOwner(h, sh.slots)
	sh.out[owner] = append(sh.out[owner], ForwardState{Hash: h, Depth: child.depth, node: child})
	sh.st.StatesForwarded++
	if len(sh.out[owner]) >= sh.cfg.BatchSize {
		return sh.flush(owner)
	}
	return nil
}

func (sh *shard) flush(owner int) error {
	states := sh.out[owner]
	if len(states) == 0 {
		return nil
	}
	sh.out[owner] = nil
	sh.st.BatchFlushes++
	return sh.conn.Send(Batch{From: sh.slot, To: owner, States: states})
}

func (sh *shard) flushAll() error {
	for owner := range sh.out {
		if err := sh.flush(owner); err != nil {
			return err
		}
	}
	return nil
}

// ingest claims the states of one arriving batch. An exhausted shard still
// counts the batch (the quiescence protocol needs the credit repaid) but
// drops its states.
func (sh *shard) ingest(b Batch) error {
	if sh.visited == nil {
		return errorf("shard %d: batch outside a round", sh.cfg.Index)
	}
	sh.received++
	if b.To != sh.slot {
		return errorf("shard %d: misrouted batch for slot %d (holding slot %d)", sh.cfg.Index, b.To, sh.slot)
	}
	sh.st.StatesReceived += int64(len(b.States))
	if sh.meter.Exhausted() {
		return nil
	}
	for i := range b.States {
		fs := &b.States[i]
		if !sh.rng.Contains(fs.Hash) {
			return errorf("shard %d: received fingerprint %#x outside owned range", sh.cfg.Index, fs.Hash)
		}
		if prior, ok := sh.visited[fs.Hash]; ok && prior <= fs.Depth {
			sh.st.RemoteDeduped++
			continue
		}
		n := fs.node
		if n == nil {
			if len(fs.Path) == 0 {
				return errorf("shard %d: forwarded state %#x has no path", sh.cfg.Index, fs.Hash)
			}
			g, err := sh.replay(fs.Path)
			if err != nil {
				return err
			}
			if g.Hash() != fs.Hash {
				return errorf("shard %d: replayed state hash %#x, sender claimed %#x — diverged configurations?", sh.cfg.Index, g.Hash(), fs.Hash)
			}
			n = &node{state: g, prefix: fs.Path, depth: fs.Depth}
		}
		sh.claim(n, fs.Hash)
	}
	return nil
}

// replay reconstructs a state from its descriptor path, resuming from the
// replay cache's state at the end of the longest prefix the path shares
// with the previously replayed one. The caller still checks the result's
// fingerprint against the sender's. A failed step drops the cache, so a
// bad descriptor cannot poison the next replay.
func (sh *shard) replay(path []EventDesc) (*mc.GState, error) {
	c := &sh.replayed
	k := 0
	for k < len(path) && k < len(c.path) && path[k] == c.path[k] {
		k++
	}
	if k == len(path) && k > 0 {
		// Identical to, or a prefix of, the cached path: keep the longer
		// path cached for the siblings still to come.
		return c.states[k-1], nil
	}
	g := sh.cfg.Root
	if k > 0 {
		g = c.states[k-1]
	}
	clear(c.states[k:])
	c.path, c.states = c.path[:k], c.states[:k]
	for i := k; i < len(path); i++ {
		_, next, err := replayStep(sh.search, sh.res[0], sh.scratch, g, path, i)
		if err != nil {
			c.drop()
			return nil, errorf("shard %d: %w", sh.cfg.Index, err)
		}
		c.path, c.states = append(c.path, path[i]), append(c.states, next)
		g = next
	}
	return g, nil
}

// replayDescs re-executes a descriptor path from root. With wantEvents it
// also returns the resolved real events (violation-path materialization at
// the coordinator).
func replayDescs(s *mc.Search, x *mc.Expander, scratch *sm.Encoder, root *mc.GState, path []EventDesc, wantEvents bool) ([]sm.Event, *mc.GState, error) {
	g := root
	var events []sm.Event
	if wantEvents {
		events = make([]sm.Event, 0, len(path))
	}
	for i := range path {
		ev, next, err := replayStep(s, x, scratch, g, path, i)
		if err != nil {
			return nil, nil, err
		}
		if wantEvents {
			events = append(events, ev)
		}
		g = next
	}
	return events, g, nil
}

// replayStep executes step i of a descriptor path on g, the state the
// path's first i steps lead to: it resolves path[i] against g's enabled
// events — the engine's enumeration makes the match unique — and applies
// it. Errors name the step's absolute index in the path.
func replayStep(s *mc.Search, x *mc.Expander, scratch *sm.Encoder, g *mc.GState, path []EventDesc, i int) (sm.Event, *mc.GState, error) {
	ev, err := resolveDesc(x, scratch, g, &path[i])
	if err != nil {
		return nil, nil, errorf("replay step %d: %w", i, err)
	}
	next := s.ApplyEvent(g, ev)
	if next == nil {
		return nil, nil, errorf("replay step %d: event %s not applicable", i, ev.Describe())
	}
	return ev, next, nil
}

func resolveDesc(x *mc.Expander, scratch *sm.Encoder, g *mc.GState, desc *EventDesc) (sm.Event, error) {
	var found sm.Event
	x.Events(g, func(ev sm.Event) {
		if found == nil && desc.matches(ev) {
			found = ev
		}
	})
	if found == nil {
		return nil, errorf("no enabled event matches descriptor %c %s->%s %q", desc.Kind, desc.From, desc.Node, desc.Name)
	}
	if desc.Kind == 'M' || desc.Kind == 'A' {
		if got := DescribeEvent(found, scratch); got.Arg != desc.Arg {
			return nil, errorf("descriptor %c %q payload fingerprint mismatch", desc.Kind, desc.Name)
		}
	}
	return found, nil
}

// report assembles this shard's round report. Shard carries the *slot* the
// report covers (like Batch.From and Idle.Shard), so the coordinator can
// index reports by partition after a repartitioned retry.
func (sh *shard) report() ShardReport {
	r := ShardReport{
		Shard:       sh.slot,
		States:      int64(len(sh.visited)),
		Expansions:  int64(sh.meter.States()),
		Transitions: sh.transitions.Load(),
		MaxDepth:    sh.maxDepth,
		Exhausted:   sh.meter.Exhausted(),
		Violations:  sh.vio.report(sh.scratch),
		Stats:       sh.st,
		Locals:      sortedKeys(sh.locals),
	}
	if sh.record {
		r.Claimed = sortedKeys(sh.visited)
	}
	return r
}

// sortedKeys returns a fingerprint-keyed map's keys in ascending order.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for h := range m {
		out = append(out, h)
	}
	slices.Sort(out)
	return out
}
