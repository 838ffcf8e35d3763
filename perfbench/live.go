package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"crystalball/internal/controller"
	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/scenario"
	"crystalball/internal/sim"
	"crystalball/internal/simnet"
)

// The live workload: the crystalball command's defaults for a chord
// steering deployment of 8 nodes (mean churn interval 1 min, 10,000-state
// round budget, the default checker worker pool), run for 3 virtual hours.
// Every operation is one deployment with its own seed derived from the
// run's seed.
const (
	liveService  = "chord"
	liveNodes    = 8
	liveChurn    = time.Minute
	liveMCStates = 10000
	liveDuration = 3 * time.Hour
	// A traced deployment keeps every liveSampleEvery-th round's start
	// state, up to liveSamples, for the call-cost probes.
	liveSampleEvery = 100
	liveSamples     = 16
	liveProbeSteps  = 5
)

// liveOp is one deployment and what the benchmark observed of it.
type liveOp struct {
	d       *scenario.Deployment
	allowed map[string]bool // chord's local and global property names
	tr      *tracer
	runSpan int64

	// One entry per CheckRound call: host wall seconds, host CPU seconds
	// and states explored.
	roundWalls  []float64
	roundCPUs   []float64
	roundStates []float64
	// vioCPUs are the CPU seconds of the rounds that found a violation.
	vioCPUs []float64
	// pending holds, per violating state hash, the virtual times at which
	// rounds that reported it started; OnViolation pairs findings with
	// them first in, first out.
	pending   map[uint64][]sim.Time
	latencies []float64 // virtual seconds, one per paired finding
	unpaired  int
	badProps  []string
	mcSum     mc.Result // traced only: the rounds' counters summed
	perState  []float64 // traced only: each round's PerStateBytes
	samples   []*mc.GState
	sampleCfg mc.Config
	truthBad  int // traced only: once-a-second ground-truth samples in violation
}

// deployLive builds a deployment wired to the benchmark through the
// controller's CheckRound seam and OnViolation hook.
func deployLive(seed int64) (*liveOp, error) {
	sc, ok := scenario.Lookup(liveService)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %s", liveService)
	}
	do := scenario.DeployOptions{
		Seed:     seed,
		Service:  scenario.Options{Nodes: liveNodes},
		Control:  scenario.Steering,
		MCStates: liveMCStates,
		Workload: true,
		Churn:    liveChurn,
	}
	cfg, err := sc.ControllerConfig(do)
	if err != nil {
		return nil, err
	}
	op := &liveOp{allowed: make(map[string]bool), pending: make(map[uint64][]sim.Time)}
	cfg.CheckRound = op.checkRound
	do.Controller = &cfg
	d, err := sc.Deploy(do)
	if err != nil {
		return nil, err
	}
	op.d = d
	for _, n := range append(d.Props.Names(), sc.GlobalProps.Names()...) {
		op.allowed[n] = true
	}
	for _, c := range d.Ctrls {
		c.OnViolation = op.onViolation
	}
	return op, nil
}

// checkRound is the controller's CheckRound seam: the embedded engine's
// round, timed.
func (op *liveOp) checkRound(cfg mc.Config, start *mc.GState) (*mc.Result, error) {
	at := op.d.Sim.Now()
	sp := op.tr.begin("controller.check_round", op.runSpan)
	cpu0, t0 := cpuTime(), time.Now()
	res := mc.NewSearch(cfg).Run(start)
	wall, cpu := time.Since(t0).Seconds(), (cpuTime() - cpu0).Seconds()
	sp.end()

	op.roundWalls = append(op.roundWalls, wall)
	op.roundCPUs = append(op.roundCPUs, cpu)
	op.roundStates = append(op.roundStates, float64(res.StatesExplored))
	if len(res.Violations) > 0 {
		op.vioCPUs = append(op.vioCPUs, cpu)
	}
	for _, v := range res.Violations {
		op.pending[v.StateHash] = append(op.pending[v.StateHash], at)
	}
	if op.tr != nil {
		s := &op.mcSum
		s.StatesExplored += res.StatesExplored
		s.Transitions += res.Transitions
		s.TransitionsPruned += res.TransitionsPruned
		s.SleepHits += res.SleepHits
		s.LocalPrunes += res.LocalPrunes
		s.DistinctLocalStates += res.DistinctLocalStates
		s.Steals += res.Steals
		s.PeakMemoryBytes = max(s.PeakMemoryBytes, res.PeakMemoryBytes)
		op.perState = append(op.perState, res.PerStateBytes)
		if len(op.roundWalls)%liveSampleEvery == 1 && len(op.samples) < liveSamples {
			op.samples = append(op.samples, start)
			op.sampleCfg = cfg
		}
	}
	return res, nil
}

// onViolation pairs a finding with the round that predicted it.
func (op *liveOp) onViolation(f controller.Finding) {
	for _, p := range f.Properties {
		if !op.allowed[p] {
			op.badProps = append(op.badProps, p)
		}
	}
	q := op.pending[f.Hash]
	if len(q) == 0 {
		op.unpaired++
		return
	}
	op.latencies = append(op.latencies, f.FoundAt.Sub(q[0]).Seconds())
	if len(q) == 1 {
		delete(op.pending, f.Hash)
	} else {
		op.pending[f.Hash] = q[1:]
	}
}

// run advances the deployment by liveDuration of virtual time, stepping
// the simulator itself so it can count events, and returns that count.
func (op *liveOp) run() int {
	s := op.d.Sim
	s.At(s.Now().Add(liveDuration), s.Stop)
	ticks := 0
	if op.tr != nil {
		// Ground truth: the deployment's properties, once a simulated
		// second. Sampling only reads node state, so the run's course is
		// unchanged.
		view := props.NewView()
		var tick func()
		tick = func() {
			ticks++
			op.d.FillView(view)
			if len(op.d.Props.Check(view)) > 0 {
				op.truthBad++
			}
			s.After(time.Second, tick)
		}
		s.After(time.Second, tick)
	}
	events := 0
	for s.Step() {
		events++
	}
	return events - ticks - 1 // the stop event is not the deployment's
}

func runLive(o opts) (*result, error) {
	// Deployment i runs with seed 1000·seed + i. A traced run pairs each
	// traced deployment with an untraced one on the same seed, so the
	// tracing overhead is not swamped by the spread between seeds.
	seedOf := func(i int) int64 {
		if o.trace {
			i /= 2
		}
		return o.seed*1000 + int64(i)
	}
	var op *liveOp
	setup, err := timeSetup(setupReps, func() error {
		var err error
		op, err = deployLive(seedOf(0))
		return err
	}, nil)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	res := &result{correct: true, layer: make(map[string]float64)}
	var (
		cpuSum, simSum, roundCPUSum, roundStateSum float64
		vioCPUs, latencies                         []float64
		tracedOps                                  []*liveOp
		tracedRoundWalls, tracedRoundStates        []float64
		events                                     []float64
	)
	peakMB, overhead, err := loop(o, tr, 0, func(i int, t *tracer) (float64, error) {
		if i > 0 {
			var err error
			if op, err = deployLive(seedOf(i)); err != nil {
				return 0, err
			}
		}
		op.tr = t
		root := t.begin("live.run", 0)
		op.runSpan = root.id
		cpu0 := cpuTime()
		n := op.run()
		cpu := (cpuTime() - cpu0).Seconds()
		root.end()

		checkLive(op, i, res)
		// With more than one checker worker a budgeted round's claimed
		// set depends on where the cutoff lands, so same-seed deployments
		// diverge; these two counts show by how much.
		var predictions int64
		for _, c := range op.d.Ctrls {
			predictions += c.Stats.ViolationsPredicted
		}
		var states float64
		for _, s := range op.roundStates {
			states += s
		}
		fmt.Fprintf(os.Stderr, "live: deployment %d (seed %d): %.0f round states, %d predictions\n",
			i, seedOf(i), states, predictions)
		cpuSum += cpu
		simSum += liveDuration.Seconds()
		for j, c := range op.roundCPUs {
			roundCPUSum += c
			roundStateSum += op.roundStates[j]
		}
		vioCPUs = append(vioCPUs, op.vioCPUs...)
		latencies = append(latencies, op.latencies...)
		if t != nil {
			tracedOps = append(tracedOps, op)
			tracedRoundWalls = append(tracedRoundWalls, op.roundWalls...)
			tracedRoundStates = append(tracedRoundStates, op.roundStates...)
			events = append(events, float64(n))
			probe := t.begin("probe", 0)
			p := newProber(t, probe.id, mc.NewSearch(op.sampleCfg), o.seed+int64(i))
			for _, g := range op.samples {
				if err := p.walk(g, liveProbeSteps); err != nil {
					return 0, err
				}
			}
			probe.end()
		}
		return cpu / liveDuration.Seconds(), nil
	})
	if err != nil {
		return nil, err
	}

	res.e2e = map[string]float64{
		"setup_s":               median(setup),
		"ttfv_s":                median(vioCPUs),
		"states_per_s":          ratio(roundStateSum, roundCPUSum),
		"peak_rss_mb":           peakMB,
		"host_cpu_per_sim_s":    ratio(cpuSum, simSum),
		"predict_latency_p50_s": median(latencies),
		"predict_latency_p99_s": tail(latencies, 99),
	}
	if o.trace {
		liveLayers(tracedOps, res.layer)
		res.layer["controller.round_ms_p50"] = percentile(tracedRoundWalls, 50) * 1e3
		res.layer["controller.round_ms_p99"] = percentile(tracedRoundWalls, 99) * 1e3
		res.layer["controller.round_states_p50"] = percentile(tracedRoundStates, 50)
		res.layer["sim.events"] = mean(events)
		res.layer["sim.self_s"] = selfTimes(tr.all())["live.run"].Seconds() / float64(len(tracedOps))
		probeLayers(tr, res.layer)
		res.layer["trace.overhead_frac"] = overhead
		if err := tr.writeJSONL(traceFile(o)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkLive applies the live correctness checks and failure accounting to
// one finished deployment: no checker failures, every finding's
// properties among chord's, every finding paired with its round. Attempted
// operations are controller rounds; a round fails when its snapshot or its
// checker run fails.
func checkLive(op *liveOp, i int, res *result) {
	var rounds, snapFail, checkFail int64
	for _, c := range op.d.Ctrls {
		rounds += c.Stats.Rounds
		snapFail += c.Stats.SnapshotFailures
		checkFail += c.Stats.CheckerFailures
	}
	res.attempted += int(rounds + snapFail)
	res.failed += int(snapFail + checkFail)
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "live: deployment %d: "+format+"\n", append([]any{i}, args...)...)
		res.correct = false
	}
	if checkFail > 0 {
		fail("%d checker failures", checkFail)
	}
	if len(op.badProps) > 0 {
		slices.Sort(op.badProps)
		fail("findings name properties chord does not declare: %v", slices.Compact(op.badProps))
	}
	if op.unpaired > 0 {
		fail("%d findings match no checker round", op.unpaired)
	}
	if len(op.latencies) == 0 {
		fail("no predictions")
	}
}

// liveLayers fills the controller, snapshot, runtime, simnet and mc metrics
// with their means over the traced deployments.
func liveLayers(ops []*liveOp, layer map[string]float64) {
	avg := func(f func(op *liveOp) float64) float64 {
		xs := make([]float64, len(ops))
		for i, op := range ops {
			xs[i] = f(op)
		}
		return mean(xs)
	}
	ctrl := func(f func(s *controller.Stats) int64) float64 {
		return avg(func(op *liveOp) float64 {
			var n int64
			for _, c := range op.d.Ctrls {
				n += f(&c.Stats)
			}
			return float64(n)
		})
	}
	layer["controller.rounds"] = ctrl(func(s *controller.Stats) int64 { return s.Rounds })
	layer["controller.check_rounds"] = avg(func(op *liveOp) float64 { return float64(len(op.roundWalls)) })
	layer["controller.skip_ratio"] = 1 - ratio(layer["controller.check_rounds"], layer["controller.rounds"])
	layer["controller.recheck_states"] = avg(func(op *liveOp) float64 {
		var explored int64
		for _, c := range op.d.Ctrls {
			explored += c.Stats.StatesExplored
		}
		var round float64
		for _, s := range op.roundStates {
			round += s
		}
		return float64(explored) - round
	})
	layer["controller.predictions"] = ctrl(func(s *controller.Stats) int64 { return s.ViolationsPredicted })
	layer["controller.filters_installed"] = ctrl(func(s *controller.Stats) int64 { return s.FiltersInstalled })
	layer["controller.filter_unsafe"] = ctrl(func(s *controller.Stats) int64 { return s.FilterUnsafe })
	layer["controller.unhelpful"] = ctrl(func(s *controller.Stats) int64 { return s.SteeringUnhelpful })
	layer["controller.replay_reinstalls"] = ctrl(func(s *controller.Stats) int64 { return s.ReplayReinstalls })
	layer["controller.checker_failures"] = ctrl(func(s *controller.Stats) int64 { return s.CheckerFailures })
	layer["controller.mc_virtual_s"] = ctrl(func(s *controller.Stats) int64 { return int64(s.MCVirtualTime) }) / 1e9
	layer["controller.ground_truth_violations"] = avg(func(op *liveOp) float64 { return float64(op.truthBad) })

	perCtrl := func(f func(c *controller.Controller) int64) float64 {
		return avg(func(op *liveOp) float64 {
			var n int64
			for _, c := range op.d.Ctrls {
				n += f(c)
			}
			return float64(n)
		})
	}
	layer["snapshot.collected"] = perCtrl(func(c *controller.Controller) int64 { return c.Manager().Stats.SnapshotsCollected })
	layer["snapshot.failed"] = perCtrl(func(c *controller.Controller) int64 { return c.Manager().Stats.SnapshotsFailed })
	layer["snapshot.retries"] = perCtrl(func(c *controller.Controller) int64 { return c.Manager().Stats.Retries })
	layer["snapshot.bytes_raw"] = perCtrl(func(c *controller.Controller) int64 { return c.Manager().Stats.BytesSentRaw })
	layer["snapshot.bytes_wire"] = perCtrl(func(c *controller.Controller) int64 { return c.Manager().Stats.BytesSentWire })
	layer["snapshot.compress_ratio"] = ratio(layer["snapshot.bytes_raw"], layer["snapshot.bytes_wire"])

	layer["runtime.actions"] = perCtrl(func(c *controller.Controller) int64 { return c.Node().Stats.ActionsExecuted })
	layer["runtime.isc_checks"] = perCtrl(func(c *controller.Controller) int64 { return c.Node().Stats.ISCChecks })
	layer["runtime.isc_blocks"] = perCtrl(func(c *controller.Controller) int64 { return c.Node().Stats.ISCBlocks })
	layer["runtime.filter_drops"] = perCtrl(func(c *controller.Controller) int64 { return c.Node().Stats.MessagesDropped })
	layer["simnet.msgs_out"] = avg(func(op *liveOp) float64 {
		var n int64
		for _, nd := range op.d.Nodes {
			n += op.d.Net.MessagesOut(nd.ID)
		}
		return float64(n)
	})
	layer["simnet.service_bytes"] = avg(func(op *liveOp) float64 { return float64(op.d.Net.TotalBytesOut(simnet.KindService)) })
	layer["simnet.checkpoint_bytes"] = avg(func(op *liveOp) float64 { return float64(op.d.Net.TotalBytesOut(simnet.KindCheckpoint)) })

	sums := make([]*mc.Result, len(ops))
	for i, op := range ops {
		s := op.mcSum
		s.PerStateBytes = mean(op.perState)
		sums[i] = &s
	}
	mcLayers(sums, layer)
}
