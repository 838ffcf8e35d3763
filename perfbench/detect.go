package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
)

// The detect workload: consequence prediction on gcounter's seeded-bug
// variant with 11 nodes, from the initial state, stopping at the first
// violation, with one checker worker per CPU. Every operation is one
// Search.Run on the same start state.
const (
	detectService = "gcounter"
	detectNodes   = 11
	detectProp    = "ReplicaConvergence"
	// detectStates caps a search at about four times the states the first
	// violation needs, so a regression that loses the bug fails the
	// operation instead of exhausting memory.
	detectStates = 250000
	// The first search in a process runs 5–25% slower than the rest, so
	// it is a warm-up whose costs are not reported.
	detectWarmups = 1
)

func runDetect(o opts) (*result, error) {
	var (
		g      *mc.GState
		search *mc.Search
	)
	setup, err := timeSetup(setupReps, func() error {
		start, cfg, err := scenario.InitialState(detectService, scenario.Options{Nodes: detectNodes})
		if err != nil {
			return err
		}
		cfg.Mode = mc.Consequence
		cfg.Seed = o.seed
		cfg.Budget = mc.Budget{
			States:     detectStates,
			Wall:       time.Minute,
			Violations: 1,
			Workers:    runtime.GOMAXPROCS(0),
		}
		g, search = start, mc.NewSearch(cfg)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	res := &result{correct: true, layer: make(map[string]float64)}
	var walls, rates, cpuPerSim []float64
	var traced []*mc.Result
	peakMB, overhead, err := loop(o, tr, detectWarmups, func(i int, t *tracer) (float64, error) {
		root := t.begin("detect.run", 0)
		sp := t.begin("mc.search", root.id)
		cpu0, t0 := cpuTime(), time.Now()
		r := search.Run(g)
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		sp.end()
		err := checkDetect(search, g, r)
		root.end()

		res.attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "detect: search %d: %v\n", i, err)
			res.failed++
			res.correct = false
		}
		if i < detectWarmups {
			return wall.Seconds(), nil
		}
		walls = append(walls, wall.Seconds())
		rates = append(rates, float64(r.StatesExplored)/wall.Seconds())
		cpuPerSim = append(cpuPerSim, cpu.Seconds()/(float64(r.StatesExplored)*perStateCost.Seconds()))
		if t != nil {
			traced = append(traced, r)
			probe := t.begin("probe", 0)
			p := newProber(t, probe.id, search, o.seed+int64(i))
			for w := 0; w < probeWalks; w++ {
				if err := p.walk(g, probeSteps); err != nil {
					return 0, err
				}
			}
			probe.end()
		}
		return wall.Seconds(), nil
	})
	if err != nil {
		return nil, err
	}

	res.e2e = map[string]float64{
		"setup_s":               median(setup),
		"ttfv_s":                median(walls),
		"states_per_s":          median(rates),
		"peak_rss_mb":           peakMB,
		"host_cpu_per_sim_s":    median(cpuPerSim),
		"predict_latency_p50_s": median(walls),
		"predict_latency_p99_s": tail(walls, 99),
	}
	if o.trace {
		mcLayers(traced, res.layer)
		probeLayers(tr, res.layer)
		res.layer["trace.overhead_frac"] = overhead
		if err := tr.writeJSONL(traceFile(o)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkDetect requires the search to report the seeded convergence bug and
// the reported path to replay to it from the start state.
func checkDetect(search *mc.Search, g *mc.GState, r *mc.Result) error {
	if len(r.Violations) == 0 {
		return fmt.Errorf("no violation after %d states", r.StatesExplored)
	}
	v := r.Violations[0]
	if !slices.Contains(v.Properties, detectProp) {
		return fmt.Errorf("violated %v, want %s", v.Properties, detectProp)
	}
	if got := search.Replay(g, v.Path); !slices.Contains(got, detectProp) {
		return fmt.Errorf("path of %d events replays to %v, want %s", len(v.Path), got, detectProp)
	}
	return nil
}

// mcLayers fills the mc counters with their means over the results.
func mcLayers(rs []*mc.Result, layer map[string]float64) {
	avg := func(f func(r *mc.Result) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return mean(xs)
	}
	layer["mc.states"] = avg(func(r *mc.Result) float64 { return float64(r.StatesExplored) })
	layer["mc.transitions"] = avg(func(r *mc.Result) float64 { return float64(r.Transitions) })
	layer["mc.useful_ratio"] = ratio(layer["mc.states"], layer["mc.transitions"])
	layer["mc.pruned"] = avg(func(r *mc.Result) float64 { return float64(r.TransitionsPruned) })
	layer["mc.sleep_hits"] = avg(func(r *mc.Result) float64 { return float64(r.SleepHits) })
	layer["mc.local_prunes"] = avg(func(r *mc.Result) float64 { return float64(r.LocalPrunes) })
	layer["mc.distinct_locals"] = avg(func(r *mc.Result) float64 { return float64(r.DistinctLocalStates) })
	layer["mc.steals"] = avg(func(r *mc.Result) float64 { return float64(r.Steals) })
	layer["mc.peak_mem_bytes"] = avg(func(r *mc.Result) float64 { return float64(r.PeakMemoryBytes) })
	layer["mc.bytes_per_state"] = avg(func(r *mc.Result) float64 { return r.PerStateBytes })
}
