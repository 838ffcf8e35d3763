package scenario_test

import (
	"strings"
	"testing"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
)

// TestPolicyPrecedence pins the one documented resolution order for the
// checker budget policy (Scenario.resolvePolicySpec):
//
//	spec source   o.PolicySpec  >  sc.CheckerPolicy  >  zero (FixedPolicy)
//	kind          o.Policy      >  spec.Kind         >  "fixed"
//	states        o.MCStates    >  spec.Base.States  >  controller default
//	workers       o.Workers     >  spec.Base.Workers >  GOMAXPROCS
//
// The scenario under test is a copy of randtree with the policy fields
// rewritten per case; the resolved spec is observed through the
// controller.Config that Deploy would install, and the controller's
// defaults through the budget its first round runs with.
func TestPolicyPrecedence(t *testing.T) {
	cases := []struct {
		label string
		// scenario-side declarations
		scPolicy mc.PolicySpec
		// deploy options
		opts scenario.DeployOptions
		// expectations on the resolved spec
		wantKind    string
		wantStates  int
		wantWorkers int
		wantErr     string
		// wantRoundStates, when set, is the state budget the first
		// deployed round must run with (controller defaults applied).
		wantRoundStates int
	}{
		{
			label:      "scenario CheckerPolicy states feed the resolved spec",
			scPolicy:   mc.PolicySpec{Kind: mc.PolicyScaled, Base: mc.Budget{States: 9000}},
			wantKind:   mc.PolicyScaled,
			wantStates: 9000,
		},
		{
			label:      "scenario CheckerPolicy without states leaves the controller default",
			scPolicy:   mc.PolicySpec{Kind: mc.PolicyAdaptive},
			wantKind:   mc.PolicyAdaptive,
			wantStates: 0,
		},
		{
			label:      "DeployOptions.MCStates beats scenario spec states",
			scPolicy:   mc.PolicySpec{Kind: mc.PolicyScaled, Base: mc.Budget{States: 9000}},
			opts:       scenario.DeployOptions{MCStates: 1234},
			wantKind:   mc.PolicyScaled,
			wantStates: 1234,
		},
		{
			label:      "DeployOptions.Policy rewrites the kind only",
			scPolicy:   mc.PolicySpec{Kind: mc.PolicyScaled, Base: mc.Budget{States: 9000}},
			opts:       scenario.DeployOptions{Policy: mc.PolicyAdaptive},
			wantKind:   mc.PolicyAdaptive,
			wantStates: 9000,
		},
		{
			label:    "DeployOptions.PolicySpec replaces the scenario spec wholesale",
			scPolicy: mc.PolicySpec{Kind: mc.PolicyScaled, Base: mc.Budget{States: 9000, Workers: 3}},
			opts: scenario.DeployOptions{PolicySpec: &mc.PolicySpec{
				Kind: mc.PolicyAdaptive, Base: mc.Budget{States: 400},
			}},
			wantKind:   mc.PolicyAdaptive,
			wantStates: 400,
		},
		{
			label:    "per-field options apply on top of PolicySpec override",
			scPolicy: mc.PolicySpec{Kind: mc.PolicyScaled, Base: mc.Budget{States: 9000}},
			opts: scenario.DeployOptions{
				PolicySpec: &mc.PolicySpec{Kind: mc.PolicyAdaptive, Base: mc.Budget{States: 400}},
				Policy:     mc.PolicyFixed,
				MCStates:   55,
				Workers:    2,
			},
			wantKind:    mc.PolicyFixed,
			wantStates:  55,
			wantWorkers: 2,
		},
		{
			label:       "DeployOptions.Workers beats scenario spec workers",
			scPolicy:    mc.PolicySpec{Base: mc.Budget{States: 9000, Workers: 3}},
			opts:        scenario.DeployOptions{Workers: 5},
			wantStates:  9000,
			wantWorkers: 5,
		},
		{
			label:       "scenario spec workers survive zero DeployOptions.Workers",
			scPolicy:    mc.PolicySpec{Base: mc.Budget{States: 9000, Workers: 3}},
			wantStates:  9000,
			wantWorkers: 3,
		},
		{
			label: "nothing set anywhere leaves states to the controller default",
			// wantStates 0: the controller's policySpec fills 20000.
			wantStates: 0,
		},
		{
			label:           "nothing set anywhere runs rounds at the 20000-state controller default",
			wantStates:      0,
			wantRoundStates: 20000,
		},
		{
			label:   "unknown kind is a Deploy-time error",
			opts:    scenario.DeployOptions{Policy: "warp"},
			wantErr: `unknown policy kind "warp"`,
		},
	}
	// The verbatim-Controller path bypasses resolvePolicySpec; its policy
	// kind must still fail at Deploy, not panic inside controller.New.
	t.Run("verbatim controller config with bad kind is a Deploy error", func(t *testing.T) {
		sc := scenario.MustLookup("randtree")
		cfg, err := sc.ControllerConfig(scenario.DeployOptions{Control: scenario.Debug})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy.Kind = "warp"
		_, err = sc.Deploy(scenario.DeployOptions{Control: scenario.Debug, Controller: &cfg})
		if err == nil || !strings.Contains(err.Error(), `unknown policy kind "warp"`) {
			t.Fatalf("Deploy error = %v, want unknown policy kind", err)
		}
	})

	for _, tc := range cases {
		tc := tc
		t.Run(tc.label, func(t *testing.T) {
			sc := *scenario.MustLookup("randtree")
			sc.CheckerPolicy = tc.scPolicy
			opts := tc.opts
			opts.Control = scenario.Debug
			cfg, err := sc.ControllerConfig(opts)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Policy.Kind != tc.wantKind {
				t.Errorf("kind = %q, want %q", cfg.Policy.Kind, tc.wantKind)
			}
			if cfg.Policy.Base.States != tc.wantStates {
				t.Errorf("states = %d, want %d", cfg.Policy.Base.States, tc.wantStates)
			}
			if cfg.Policy.Base.Workers != tc.wantWorkers {
				t.Errorf("workers = %d, want %d", cfg.Policy.Base.Workers, tc.wantWorkers)
			}
			if tc.wantRoundStates == 0 {
				return
			}
			// Stub the checker so the round records its budget and
			// explores nothing.
			var ran []mc.Budget
			cfg.CheckRound = func(c mc.Config, _ *mc.GState) (*mc.Result, error) {
				ran = append(ran, c.Budget)
				return &mc.Result{Workers: 1}, nil
			}
			opts.Controller = &cfg
			opts.Workload = true
			d, err := sc.Deploy(opts)
			if err != nil {
				t.Fatal(err)
			}
			d.Sim.RunFor(3 * cfg.SnapshotInterval)
			if len(ran) == 0 {
				t.Fatal("no checker round ran")
			}
			if ran[0].States != tc.wantRoundStates {
				t.Errorf("round states = %d, want %d", ran[0].States, tc.wantRoundStates)
			}
		})
	}
}
