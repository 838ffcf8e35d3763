package main

import (
	"fmt"
	"math/rand"

	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// prober samples the cost of single calls into mc, props and sm. The
// search engine makes these calls internally where the benchmark cannot
// time them, so a traced operation is followed by short seeded walks over
// the same configuration, timing each public call on the way.
type prober struct {
	tr     *tracer
	parent int64
	search *mc.Search
	cfg    mc.Config
	rng    *rand.Rand
	view   *props.View
	names  []string
}

const (
	// maxApply bounds the successors applied per walked state.
	maxApply = 16
	// The offline workloads probe probeWalks walks of probeSteps steps
	// from their start state after each traced operation.
	probeWalks = 10
	probeSteps = 9
)

func newProber(tr *tracer, parent int64, search *mc.Search, seed int64) *prober {
	return &prober{
		tr:     tr,
		parent: parent,
		search: search,
		cfg:    search.Config(),
		rng:    rand.New(rand.NewSource(seed)),
		view:   props.NewView(),
	}
}

// walk takes up to steps random steps from start. At each state it times
// Search.EnabledEvents and Search.ApplyEvent on up to maxApply enabled
// events; on the state it moves to it times GState.FillView, the local
// and global property sets, and the full-state codec on one node.
func (p *prober) walk(start *mc.GState, steps int) error {
	g := start
	var evs []sm.Event
	var succ []*mc.GState
	for i := 0; i < steps; i++ {
		sp := p.tr.begin("mc.enabled", p.parent)
		network, internal := p.search.EnabledEvents(g)
		sp.end()
		evs = append(evs[:0], network...)
		for _, id := range g.Nodes() {
			evs = append(evs, internal[id]...)
		}
		if len(evs) > maxApply {
			p.rng.Shuffle(len(evs), func(a, b int) { evs[a], evs[b] = evs[b], evs[a] })
			evs = evs[:maxApply]
		}
		succ = succ[:0]
		for _, ev := range evs {
			sp := p.tr.begin("mc.apply", p.parent)
			next := p.search.ApplyEvent(g, ev)
			sp.end()
			if next != nil {
				succ = append(succ, next)
			}
		}
		if len(succ) == 0 {
			return nil
		}
		g = succ[p.rng.Intn(len(succ))]
		p.checkProps(g)
		if err := p.codec(g); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) checkProps(g *mc.GState) {
	sp := p.tr.begin("props.view_fill", p.parent)
	g.FillView(p.view)
	sp.end()
	sp = p.tr.begin("props.local", p.parent)
	p.names = p.cfg.Props.Check(p.view)
	sp.end()
	sp = p.tr.begin("props.global", p.parent)
	p.names = p.cfg.GlobalProps.AppendViolated(p.names[:0], props.Global(p.view))
	sp.end()
}

// codec round-trips one random node of g through the checkpoint encoding.
func (p *prober) codec(g *mc.GState) error {
	ids := g.Nodes()
	id := ids[p.rng.Intn(len(ids))]
	ns := g.Node(id)
	sp := p.tr.begin("sm.encode_full", p.parent)
	data := sm.EncodeFullState(ns.Svc, ns.Timers)
	sp.end()
	sp = p.tr.begin("sm.decode_full", p.parent)
	_, _, err := sm.DecodeFullState(p.cfg.Factory, id, data)
	sp.end()
	if err != nil {
		return fmt.Errorf("decode node %v: %w", id, err)
	}
	return nil
}

// probeLayers fills the sampled call-cost metrics from the probe spans.
func probeLayers(tr *tracer, layer map[string]float64) {
	layer["mc.apply_ns"] = median(tr.durations("mc.apply"))
	layer["mc.enabled_ns"] = median(tr.durations("mc.enabled"))
	layer["props.view_fill_ns"] = median(tr.durations("props.view_fill"))
	layer["props.local_ns"] = median(tr.durations("props.local"))
	layer["props.global_ns"] = median(tr.durations("props.global"))
	layer["sm.encode_full_us"] = median(tr.durations("sm.encode_full")) / 1e3
	layer["sm.decode_full_us"] = median(tr.durations("sm.decode_full")) / 1e3
}
