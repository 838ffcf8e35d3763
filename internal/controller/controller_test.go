package controller

import (
	"errors"
	"testing"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/runtime"
	"crystalball/internal/sim"
	"crystalball/internal/simnet"
	"crystalball/internal/sm"
	"crystalball/internal/snapshot"
	"crystalball/internal/testsvc"
)

func snapCfg() snapshot.Config {
	return snapshot.Config{
		Interval:       time.Second,
		Quota:          50,
		CollectTimeout: time.Second,
		Compress:       true,
		MaxRetries:     1,
	}
}

// deployWithController brings up n nodes, each with a controller.
func deployWithController(t *testing.T, n int, cfg Config) (*sim.Simulator, []*Controller) {
	t.Helper()
	s := sim.New(31)
	net := simnet.New(s, simnet.UniformPath{Latency: 5 * time.Millisecond, BwBps: 1e9})
	ids := make([]sm.NodeID, n)
	for i := range ids {
		ids[i] = sm.NodeID(i + 1)
	}
	factory := testsvc.NewWithPeers(ids...)
	cfg.Factory = factory
	var ctrls []*Controller
	for _, id := range ids {
		node := runtime.NewNode(s, net, id, factory)
		c := New(s, node, cfg, snapCfg())
		c.Start()
		ctrls = append(ctrls, c)
	}
	return s, ctrls
}

func debugCfg(limit int) Config {
	cfg := DefaultConfig(props.Set{testsvc.CounterBelow(limit)}, nil)
	cfg.SnapshotInterval = 2 * time.Second
	cfg.Policy.Base.States = 3000
	cfg.PerStateCost = 100 * time.Microsecond
	cfg.ExploreResets = false
	cfg.EnableISC = false
	return cfg
}

func TestDebuggingModePredictsFutureViolation(t *testing.T) {
	// The property "counter < 2" is not violated live (nothing bumps the
	// counter), but the checker's app-call exploration (Bump) predicts a
	// state where it would be.
	s, ctrls := deployWithController(t, 2, debugCfg(2))
	s.RunFor(30 * time.Second)
	var total int64
	for _, c := range ctrls {
		total += c.Stats.ViolationsPredicted
	}
	if total == 0 {
		t.Fatal("no future violation predicted by consequence prediction")
	}
	for _, c := range ctrls {
		if len(c.Findings()) > 0 {
			f := c.Findings()[0]
			if len(f.Path) == 0 {
				t.Fatal("finding lacks an event path")
			}
			if f.Filter != nil {
				t.Fatal("debugging mode must not install filters")
			}
		}
	}
}

func TestRoundsAndSnapshotsProceed(t *testing.T) {
	cfg := debugCfg(1000)
	cfg.Policy.Base.States = 300 // liveness of the round loop, not search depth
	s, ctrls := deployWithController(t, 3, cfg)
	s.RunFor(15 * time.Second)
	for i, c := range ctrls {
		if c.Stats.Rounds == 0 {
			t.Fatalf("controller %d never completed a round", i)
		}
		if c.LastView() == nil {
			t.Fatalf("controller %d has no snapshot view", i)
		}
	}
}

func TestSteeringInstallsFilter(t *testing.T) {
	cfg := debugCfg(2)
	cfg.Mode = ExecutionSteering
	// Disable the safety recheck here: with this toy property every
	// post-filter state still violates eventually, which would always
	// veto; the recheck has its own test below.
	cfg.CheckFilterSafety = false
	s, ctrls := deployWithController(t, 2, cfg)
	s.RunFor(40 * time.Second)
	var installed int64
	var unhelpful int64
	for _, c := range ctrls {
		installed += c.Stats.FiltersInstalled
		unhelpful += c.Stats.SteeringUnhelpful
	}
	if installed == 0 && unhelpful == 0 {
		t.Fatal("steering mode neither installed filters nor reported unhelpful")
	}
	if installed == 0 {
		t.Fatal("no filters installed")
	}
}

func TestFilterSafetyCheckVetoesUselessFilter(t *testing.T) {
	// With CounterBelow(2) every node can violate via its *own* Bump app
	// call as well, so filtering a single message does not make the
	// violation unreachable: the safety check must reject the filter.
	cfg := debugCfg(2)
	cfg.Mode = ExecutionSteering
	cfg.CheckFilterSafety = true
	s, ctrls := deployWithController(t, 2, cfg)
	s.RunFor(40 * time.Second)
	var unsafe int64
	for _, c := range ctrls {
		unsafe += c.Stats.FilterUnsafe
	}
	if unsafe == 0 {
		t.Fatal("safety recheck never rejected an unsafe filter")
	}
}

func TestVirtualMCLatencyDelaysReport(t *testing.T) {
	cfg := debugCfg(2)
	cfg.PerStateCost = 10 * time.Millisecond // expensive checker
	cfg.Policy.Base.States = 1000
	s, ctrls := deployWithController(t, 2, cfg)

	var predictionTimes []sim.Time
	for _, c := range ctrls {
		c.OnViolation = func(f Finding) { predictionTimes = append(predictionTimes, f.FoundAt) }
	}
	s.RunFor(30 * time.Second)
	if len(predictionTimes) == 0 {
		t.Skip("no prediction in window (budget too small)")
	}
	// The first snapshot completes shortly after the 2 s interval; even
	// a tiny search (>= 10 states at 10 ms each) delays the report by
	// >= 100 ms beyond that.
	if predictionTimes[0] < sim.Time(2100*time.Millisecond) {
		t.Fatalf("report arrived implausibly fast: %v", predictionTimes[0])
	}
	var st int64
	for _, c := range ctrls {
		st += c.Stats.StatesExplored
	}
	if st == 0 {
		t.Fatal("no states explored")
	}
}

func TestDistinctFindingsDedup(t *testing.T) {
	a := Finding{Properties: []string{"P"}, Path: []sm.Event{sm.TimerEvent{At: 1, Timer: "t"}}}
	b := Finding{Properties: []string{"P"}, Path: []sm.Event{sm.TimerEvent{At: 1, Timer: "t"}}}
	c := Finding{Properties: []string{"Q"}, Path: []sm.Event{sm.TimerEvent{At: 1, Timer: "t"}}}
	got := DistinctFindings([]Finding{a, b, c})
	if len(got) != 2 {
		t.Fatalf("distinct = %d, want 2", len(got))
	}
}

func TestControllerSurvivesNodeResets(t *testing.T) {
	cfg := debugCfg(1000)
	cfg.Policy.Base.States = 300
	s, ctrls := deployWithController(t, 3, cfg)
	s.After(5*time.Second, func() { ctrls[1].Node().Reset(true) })
	s.After(12*time.Second, func() { ctrls[2].Node().Reset(false) })
	s.RunFor(25 * time.Second)
	for i, c := range ctrls {
		if c.Stats.Rounds == 0 {
			t.Fatalf("controller %d stalled after resets", i)
		}
	}
}

func TestISCWiredThroughController(t *testing.T) {
	cfg := debugCfg(1) // nothing may ever exceed counter 0
	cfg.EnableISC = true
	s, ctrls := deployWithController(t, 2, cfg)
	// Drive a Bump at node 1; its gossip to node 2 would raise N to 1.
	s.After(5*time.Second, func() { ctrls[0].Node().App(testsvc.Bump{}) })
	s.RunFor(20 * time.Second)
	n2 := ctrls[1].Node()
	if n2.Stats.ISCChecks == 0 {
		t.Fatal("ISC never consulted")
	}
	if got := n2.Service().(*testsvc.Svc).N; got != 0 {
		t.Fatalf("ISC failed to protect node 2: N=%d", got)
	}
}

// TestCheckerFailureDegradesConservative pins the robustness contract for
// the checker seam: while checker rounds fail, the controller degrades to
// conservative mode — it keeps the filters of the last successful round
// installed (instead of expiring them on the usual per-run schedule),
// counts the failures, and keeps its snapshot loop running — and when the
// checker succeeds again it recovers to normal operation.
func TestCheckerFailureDegradesConservative(t *testing.T) {
	cfg := debugCfg(2)
	cfg.Mode = ExecutionSteering
	cfg.CheckFilterSafety = false
	fail := false
	cfg.CheckRound = func(mcfg mc.Config, start *mc.GState) (*mc.Result, error) {
		if fail {
			return nil, errors.New("checker process crashed")
		}
		return mc.NewSearch(mcfg).Run(start), nil
	}
	s, ctrls := deployWithController(t, 2, cfg)

	// Healthy until 10 s (filters get installed), failing 10 s - 22 s,
	// healthy again afterwards. Rounds run every 2 s.
	s.After(10*time.Second, func() { fail = true })
	type probe struct {
		conservative bool
		filters      int
		rounds       int64
	}
	var during []probe
	s.After(21*time.Second, func() {
		for _, c := range ctrls {
			during = append(during, probe{c.Conservative(), len(c.Node().Filters()), c.Stats.Rounds})
		}
	})
	s.After(22*time.Second, func() { fail = false })
	s.RunFor(34 * time.Second)

	if len(during) != len(ctrls) {
		t.Fatalf("probe captured %d controllers, want %d", len(during), len(ctrls))
	}
	filtersDuring := 0
	for i, p := range during {
		if !p.conservative {
			t.Errorf("controller %d not conservative during the failure window", i)
		}
		filtersDuring += p.filters
	}
	if filtersDuring == 0 {
		t.Errorf("conservative mode kept no filters installed")
	}
	for i, c := range ctrls {
		if c.Stats.CheckerFailures == 0 {
			t.Errorf("controller %d recorded no checker failures", i)
		}
		if c.Stats.ConservativeRounds < c.Stats.CheckerFailures {
			t.Errorf("controller %d: ConservativeRounds=%d < CheckerFailures=%d",
				i, c.Stats.ConservativeRounds, c.Stats.CheckerFailures)
		}
		if c.Conservative() {
			t.Errorf("controller %d still conservative after the checker recovered", i)
		}
		if c.Stats.Rounds <= during[i].rounds {
			t.Errorf("controller %d: snapshot loop stalled after the failure window (%d rounds, %d during)",
				i, c.Stats.Rounds, during[i].rounds)
		}
	}
}

// TestModeStringReportsUnknown: the two real modes render their names and
// any other value is reported explicitly instead of masquerading as
// deep-online-debugging.
func TestModeStringReportsUnknown(t *testing.T) {
	if got := DeepOnlineDebugging.String(); got != "deep-online-debugging" {
		t.Fatalf("DeepOnlineDebugging = %q", got)
	}
	if got := ExecutionSteering.String(); got != "execution-steering" {
		t.Fatalf("ExecutionSteering = %q", got)
	}
	if got := Mode(7).String(); got != "unknown-mode(7)" {
		t.Fatalf("Mode(7) = %q, want unknown-mode(7)", got)
	}
	if got := Mode(-1).String(); got != "unknown-mode(-1)" {
		t.Fatalf("Mode(-1) = %q, want unknown-mode(-1)", got)
	}
}
