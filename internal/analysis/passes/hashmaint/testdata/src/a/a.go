// Package a models the checker's fingerprinted global state for the
// hashmaint pass: component writes must pair with hsum/encSize maintenance,
// directly or through a helper.
package a

type NodeState struct{ V int }

// InFlight mirrors an in-flight item: its queue position is hashed too.
type InFlight struct{ V, pos int }

// GState mirrors mc.GState's fingerprint structure.
type GState struct {
	ids     []int
	nodes   []*NodeState
	msgs    []InFlight
	stale   map[int]bool
	resets  int
	hsum    uint64
	encSize int
}

// setNode maintains the fingerprint directly.
func (g *GState) setNode(i int, ns *NodeState, h uint64) {
	g.nodes[i] = ns
	g.hsum += h
}

// addMsg maintains hsum and encSize.
func (g *GState) addMsg(m int) {
	g.msgs = append(g.msgs, InFlight{V: m})
	g.hsum += uint64(m)
	g.encSize += 8
}

// removeMsgAt shifts the slice with copy and re-positions later items,
// maintaining hsum for both.
func (g *GState) removeMsgAt(i int) {
	g.hsum -= uint64(g.msgs[i].V)
	copy(g.msgs[i:], g.msgs[i+1:])
	g.msgs = g.msgs[:len(g.msgs)-1]
	for j := i; j < len(g.msgs); j++ {
		g.msgs[j].pos--
		g.hsum--
	}
}

// insertNode copy-inserts into the node table, maintaining hsum.
func (g *GState) insertNode(pos int, ns *NodeState, h uint64) {
	nodes := make([]*NodeState, len(g.nodes)+1)
	copy(nodes, g.nodes[:pos])
	nodes[pos] = ns
	copy(nodes[pos+1:], g.nodes[pos:])
	g.nodes = nodes
	g.hsum += h
}

// dropStale clears every stale pair, maintaining hsum.
func (g *GState) dropStale(h uint64) {
	clear(g.stale)
	g.hsum -= h
}

// reads only reads components: a component as copy's source, clear and
// element writes on local copies, and writes to the non-fingerprinted ids.
func (g *GState) reads() []InFlight {
	ms := make([]InFlight, len(g.msgs))
	copy(ms, g.msgs)
	ms[0].pos = 1
	seen := map[int]bool{}
	clear(seen)
	copy(g.ids, []int{1})
	g.ids[0] = 2
	return ms
}

// viaHelper maintains through addMsg: the call-graph fixpoint covers the
// resets bump too.
func (g *GState) viaHelper(m int) {
	g.addMsg(m)
	g.resets++
}

// forget mutates a component with no fingerprint maintenance anywhere.
func (g *GState) forget(m int) {
	g.msgs = append(g.msgs, InFlight{V: m}) // want `forget writes GState.msgs without a paired incremental hsum update`
}

// clobber rewrites a node element unmaintained.
func (g *GState) clobber(id int) {
	g.nodes[id] = &NodeState{} // want `clobber writes GState.nodes`
}

// drop deletes a stale entry unmaintained.
func (g *GState) drop(p int) {
	delete(g.stale, p) // want `drop writes GState.stale`
}

// shift copies over part of the in-flight list unmaintained.
func (g *GState) shift(i int) {
	copy(g.msgs[i:], g.msgs[i+1:]) // want `shift writes GState.msgs`
}

// shiftWindow writes through a two-index slice expression.
func (g *GState) shiftWindow(i, j int) {
	copy(g.msgs[i:j], g.msgs[j:]) // want `shiftWindow writes GState.msgs`
}

// overwrite copies a whole node table in unmaintained.
func (g *GState) overwrite(src []*NodeState) {
	copy(g.nodes, src) // want `overwrite writes GState.nodes`
}

// wipe clears the stale set unmaintained.
func (g *GState) wipe() {
	clear(g.stale) // want `wipe writes GState.stale`
}

// reposition writes a field of an in-flight element unmaintained.
func (g *GState) reposition(j int) {
	g.msgs[j].pos = 0 // want `reposition writes GState.msgs`
	g.msgs[j].pos++   // want `reposition writes GState.msgs`
}

// nodeField writes through a node-table element unmaintained.
func (g *GState) nodeField(i int) {
	(g.nodes[i]).V = 1 // want `nodeField writes GState.nodes`
}

// literal builds a GState with a component but no fingerprint key.
func literal(ns []*NodeState) *GState {
	return &GState{nodes: ns} // want `literal writes GState.nodes`
}

// literalWithGuard carries the fingerprint explicitly.
func literalWithGuard(ns []*NodeState, h uint64) *GState {
	return &GState{nodes: ns, hsum: h}
}

// scrub resets components wholesale; the suppression documents why the zero
// fingerprint is already correct.
//
//crystal:allow(hashmaint) wholesale reset: the zero value is the fingerprint of the empty state
func (g *GState) scrub() {
	g.msgs = nil
	g.resets = 0
}
