package mc

import (
	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// This file is the checker's sharding seam: the minimal exported surface a
// distributed search (internal/dist) needs to partition the visited set by
// state fingerprint and drive the engine's expansion hot path from outside
// the package. The engine's own frontier stays level-synchronized and
// in-process; a sharded search owns a HashRange of the fingerprint space,
// schedules its owned states with the engine's Pool under a Meter, expands
// them through an Expander, and hands successors that hash outside the
// range to their owner shard.

// HashRange is a half-open range [Lo, Hi) of 64-bit state fingerprints: the
// unit of visited-set ownership in a sharded search. Hi == 0 means "top of
// the space" (2^64), so the zero value owns every fingerprint. Because
// GState.Hash is Mix64-avalanched, contiguous equal-width ranges split real
// state populations near-uniformly — no rehashing is needed to balance
// shards.
type HashRange struct {
	Lo, Hi uint64
}

// Contains reports whether the fingerprint h falls in the range.
func (r HashRange) Contains(h uint64) bool {
	return h >= r.Lo && (r.Hi == 0 || h < r.Hi)
}

// shardStep returns the width of each of n equal hash ranges. The value
// wraps to 0 at n == 1 (the full space), which Contains and ShardOwner
// treat as "everything".
func shardStep(n int) uint64 {
	if n <= 1 {
		return 0
	}
	return ^uint64(0)/uint64(n) + 1
}

// ShardRange returns shard i's hash range under an n-way equal-width
// partition of the fingerprint space. The ranges tile the space exactly:
// every fingerprint is in precisely one range, and ShardOwner agrees with
// Contains.
func ShardRange(i, n int) HashRange {
	step := shardStep(n)
	if step == 0 {
		return HashRange{}
	}
	r := HashRange{Lo: step * uint64(i)}
	if i < n-1 {
		r.Hi = step * uint64(i+1)
	}
	return r
}

// ShardOwner returns the index of the shard owning fingerprint h under the
// n-way partition of ShardRange.
func ShardOwner(h uint64, n int) int {
	step := shardStep(n)
	if step == 0 {
		return 0
	}
	i := int(h / step)
	if i >= n {
		i = n - 1
	}
	return i
}

// Expander is one worker's reusable expansion workspace for driving the
// checker's per-state hot path from outside the engine: a property check
// through a pooled view and deterministic transition enumeration through a
// pooled event buffer. It is what a shard engine calls per owned state
// instead of the engine's expandNode. An Expander is not safe for
// concurrent use — create one per worker goroutine, like the engine's
// workerRes.
type Expander struct {
	s    *Search
	view *props.View
	evb  eventBuf
}

// NewExpander returns a fresh expansion workspace bound to the search.
func (s *Search) NewExpander() *Expander {
	return &Expander{s: s, view: props.NewView()}
}

// Check evaluates the search's property set — local and global — on g
// through the expander's pooled view and returns the violated property
// names (nil when g is consistent). The returned slice is freshly
// allocated per violation and owned by the caller. Global properties are
// a pure function of g, so a shard that only ever holds its own claimed
// states still reports exactly the serial engine's violation set.
func (x *Expander) Check(g *GState) []string {
	g.FillView(x.view)
	return x.s.checkProps(x.view)
}

// Events enumerates the transitions enabled at g in the engine's canonical
// deterministic order — message-handler events in in-flight queue order,
// then per node in sorted id order the internal actions (timers sorted,
// model app calls, resets, conn breaks) — and calls emit for each. The
// order is exactly what the serial engine expands, so a sharded search
// proposing successors in emit order preserves the engine's
// sibling-ordering guarantees. emit must not reenter Events on the same
// Expander: the enumeration buffer is recycled per call.
func (x *Expander) Events(g *GState, emit func(sm.Event)) {
	network, ids, internal := x.s.enabledInto(g, &x.evb)
	for _, ev := range network {
		emit(ev)
	}
	for i := range ids {
		for _, ev := range internal[i] {
			emit(ev)
		}
	}
}

// LocalHashes appends every node's local-state fingerprint to dst, in
// ascending node-id order (the node table is aligned with Nodes), and
// returns it — what a shard folds into its distinct-local-state set per
// claimed state.
func (g *GState) LocalHashes(dst []uint64) []uint64 {
	for _, ns := range g.nodes {
		dst = append(dst, ns.localHash())
	}
	return dst
}
