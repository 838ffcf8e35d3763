// Package scenario is the unified front-end over CrystalBall's checker and
// live deployment stacks.
//
// A Scenario declaratively describes one checkable workload: how to build
// the service factory (parameterised by node count, seeded-bug fixes and a
// variant string), which safety properties to check, the default node
// counts for offline checking and live deployment, the fault model the
// checker should explore, the initial application-call workload, and the
// per-scenario checker defaults. Service packages register their scenario
// in an init function; every entry point — cmd/mcheck, cmd/crystalball,
// cmd/experiments, the examples and the experiment harnesses — resolves
// services through the registry instead of carrying its own service
// switch.
//
// Two builders sit on top of the registry:
//
//   - InitialState assembles the offline model checker's start state and a
//     ready mc.Config (the mcheck path);
//   - Deploy assembles the full live stack — simulated clock, simulated
//     network with a path model, per-node runtime, snapshot managers and
//     CrystalBall controllers — behind one options struct (the
//     crystalball/experiments path).
//
// Adding scenario N+1 is a one-file, one-Register change in its service
// package; every CLI, example and experiment picks it up automatically.
package scenario

import (
	"fmt"
	"time"

	"crystalball/internal/controller"
	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// Options parameterises a scenario's service factory. The zero value means
// "scenario default": unset fields are resolved against the scenario's
// Check tuning (offline checking) or Live tuning (deployment) before the
// factory runs.
type Options struct {
	// Nodes is the member count (node ids are 1..Nodes).
	Nodes int
	// Fixed applies every seeded-bug fix, yielding the repaired variant.
	Fixed bool
	// Variant selects a scenario-specific configuration, e.g. the paxos
	// scenario accepts "bug1" / "bug2" to inject exactly one of the
	// paper's two bugs (the default injects both).
	Variant string
	// Degree bounds per-node fan-out where the service has one
	// (RandTree's MaxChildren, Bullet's MaxPeers).
	Degree int
	// Blocks and BlockSize describe the payload of data-plane scenarios
	// (Bullet').
	Blocks    int
	BlockSize int
}

// Tuning is a scenario's default Options for one use of the service; zero
// fields of a caller's Options are filled from it.
type Tuning struct {
	Nodes     int
	Degree    int
	Blocks    int
	BlockSize int
}

func (t Tuning) resolve(o Options) Options {
	if o.Nodes == 0 {
		o.Nodes = t.Nodes
	}
	if o.Degree == 0 {
		o.Degree = t.Degree
	}
	if o.Blocks == 0 {
		o.Blocks = t.Blocks
	}
	if o.BlockSize == 0 {
		o.BlockSize = t.BlockSize
	}
	return o
}

// Faults is a scenario's default fault model for the checker.
type Faults struct {
	// ExploreResets enables node-reset fault transitions.
	ExploreResets bool
	// ExploreConnBreaks enables spontaneous connection-break
	// transitions.
	ExploreConnBreaks bool
	// MaxResetsPerPath bounds resets along one path (0 = checker
	// default).
	MaxResetsPerPath int
}

// Scenario declaratively describes one service workload: everything the
// checker and the live deployment need, with no imperative wiring.
type Scenario struct {
	// Name is the canonical registry key ("randtree", "bulletprime", ...).
	Name string
	// Aliases are additional Lookup keys (e.g. "bullet").
	Aliases []string
	// Description is a one-line summary for -list output.
	Description string

	// New builds the service factory for the given member set. ids is
	// 1..Nodes and o is fully resolved; implementations should reject
	// unknown Variant values.
	New func(ids []sm.NodeID, o Options) (sm.Factory, error)

	// Props is the scenario's safety property set (sound for steering).
	Props props.Set
	// DebugProps optionally extends Props for deep online debugging and
	// offline checking; nil means Props serves both purposes.
	DebugProps props.Set
	// GlobalProps are the scenario's cross-node properties (replica
	// convergence, agreement, ring consistency). They are checked by every
	// search the scenario runs — offline mcheck, sharded dist rounds, and
	// live consequence prediction — and their violations steer executions
	// through the same filter machinery as Props violations.
	GlobalProps props.GlobalSet

	// Check and Live are the Options defaults for offline checking and
	// live deployment respectively.
	Check Tuning
	Live  Tuning

	// Faults is the default fault model for the checker.
	Faults Faults

	// Reduction enables sleep-set partial-order reduction
	// (mc.Config.Reduce) for this scenario's searches — offline checking
	// and live consequence-prediction rounds alike. Sound whenever the
	// scenario's properties are over states, not event orderings: the
	// reduced search claims the identical state set, local-state set and
	// violation set, just through fewer handler executions (the
	// differential oracle in reduction_oracle_test.go pins this). Leave
	// it off for scenarios whose checkers instrument message-arrival
	// order itself.
	Reduction bool

	// CheckerPolicy declares the per-round exploration budget policy for
	// live controllers: the kind ("fixed", "scaled", "adaptive") plus
	// the base budget and tuning. The zero value means a FixedPolicy
	// over the controller default budget. See resolvePolicySpec for how
	// DeployOptions override it.
	CheckerPolicy mc.PolicySpec

	// Join returns a fresh application call that makes a node enter the
	// workload; nil when the scenario has no join call (paxos, Bullet').
	// Deployments issue it at start-up and after churn rejoins.
	Join func() sm.AppCall
	// JoinStagger is the gap between successive nodes' initial joins
	// (chord staggers joins so the ring forms; 0 = all at once).
	JoinStagger time.Duration
}

// PropsFor returns the property set for the given purpose: the debugging
// set when debug is true and the scenario declares one, Props otherwise.
func (sc *Scenario) PropsFor(debug bool) props.Set {
	if debug && sc.DebugProps != nil {
		return sc.DebugProps
	}
	return sc.Props
}

// CheckOptions resolves o against the scenario's offline-checking defaults.
func (sc *Scenario) CheckOptions(o Options) Options { return sc.Check.resolve(o) }

// LiveOptions resolves o against the scenario's deployment defaults.
func (sc *Scenario) LiveOptions(o Options) Options { return sc.Live.resolve(o) }

// IDs returns node ids 1..n.
func IDs(n int) []sm.NodeID {
	out := make([]sm.NodeID, n)
	for i := range out {
		out[i] = sm.NodeID(i + 1)
	}
	return out
}

// Factory builds the service factory for already-resolved options.
func (sc *Scenario) Factory(o Options) (sm.Factory, error) {
	f, err := sc.New(IDs(o.Nodes), o)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	return f, nil
}

// SearchConfig returns the scenario's checker defaults — properties,
// factory and fault model — with o resolved against the Check tuning.
// Callers set the search mode and budgets on the result; examples that
// stage hand-built start states use this to stay on scenario defaults.
func (sc *Scenario) SearchConfig(o Options) (mc.Config, error) {
	o = sc.CheckOptions(o)
	factory, err := sc.Factory(o)
	if err != nil {
		return mc.Config{}, err
	}
	return mc.Config{
		Props:             sc.PropsFor(true),
		GlobalProps:       sc.GlobalProps,
		Factory:           factory,
		ExploreResets:     sc.Faults.ExploreResets,
		ExploreConnBreaks: sc.Faults.ExploreConnBreaks,
		MaxResetsPerPath:  sc.Faults.MaxResetsPerPath,
		Reduce:            sc.Reduction,
	}, nil
}

// InitialState builds the offline model checker's start state — every node
// a fresh, pre-Init service instance with no pending timers, exactly what
// mcheck explores from — plus the scenario's default mc.Config.
func (sc *Scenario) InitialState(o Options) (*mc.GState, mc.Config, error) {
	o = sc.CheckOptions(o)
	cfg, err := sc.SearchConfig(o)
	if err != nil {
		return nil, mc.Config{}, err
	}
	g := mc.NewGState()
	for _, id := range IDs(o.Nodes) {
		g.AddNode(id, cfg.Factory(id), nil)
	}
	return g, cfg, nil
}

// InitialState resolves service in the registry and builds its offline
// start state; see Scenario.InitialState.
func InitialState(service string, o Options) (*mc.GState, mc.Config, error) {
	sc, ok := Lookup(service)
	if !ok {
		return nil, mc.Config{}, fmt.Errorf("unknown scenario %q (registered: %v)", service, Names())
	}
	return sc.InitialState(o)
}

// ControllerConfig derives the controller configuration Deploy would
// install for o, so callers can tweak rarely-used fields (filter-safety
// ablations, replay policy) and pass the result back via o.Controller.
func (sc *Scenario) ControllerConfig(o DeployOptions) (controller.Config, error) {
	if o.Control == Bare {
		return controller.Config{}, fmt.Errorf("scenario %s: no controller in Bare deployments", sc.Name)
	}
	opts := sc.LiveOptions(o.Service)
	factory, err := sc.Factory(opts)
	if err != nil {
		return controller.Config{}, err
	}
	ps := o.Props
	if ps == nil {
		ps = sc.PropsFor(o.Control == Debug)
	}
	cfg := controller.DefaultConfig(ps, factory)
	cfg.GlobalProps = sc.GlobalProps
	if o.Control == Steering {
		cfg.Mode = controller.ExecutionSteering
	} else {
		cfg.Mode = controller.DeepOnlineDebugging
	}
	// The immediate safety check intervenes in the execution, so it is
	// on only when the deployment steers — unless explicitly toggled
	// (the ISC-only experiment arm runs it under a debugging controller).
	cfg.EnableISC = o.Control == Steering
	switch o.ISC {
	case On:
		cfg.EnableISC = true
	case Off:
		cfg.EnableISC = false
	}
	faults := sc.Faults
	if o.Faults != nil {
		faults = *o.Faults
	}
	cfg.ExploreResets = faults.ExploreResets
	cfg.ExploreConnBreaks = faults.ExploreConnBreaks
	cfg.MaxResetsPerPath = faults.MaxResetsPerPath
	cfg.Reduce = sc.Reduction
	switch o.Reduce {
	case On:
		cfg.Reduce = true
	case Off:
		cfg.Reduce = false
	}
	spec, err := sc.resolvePolicySpec(o)
	if err != nil {
		return controller.Config{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	cfg.Policy = spec
	if o.PerStateCost > 0 {
		cfg.PerStateCost = o.PerStateCost
	}
	if o.SnapshotInterval > 0 {
		cfg.SnapshotInterval = o.SnapshotInterval
	}
	return cfg, nil
}

// resolvePolicySpec is the ONE place the checker budget policy for a
// deployment is decided. Precedence, highest first, per field:
//
//	spec source   o.PolicySpec  >  sc.CheckerPolicy  >  zero (FixedPolicy)
//	kind          o.Policy      >  spec.Kind         >  "fixed"
//	states        o.MCStates    >  spec.Base.States  >  controller default
//	workers       o.Workers     >  spec.Base.Workers >  GOMAXPROCS
//
// All other spec fields (depth, wall, violations, adaptive/scaled tuning)
// come from the winning spec source; unset values fall to the controller
// defaults (Config.policySpec). TestPolicyPrecedence pins this table.
func (sc *Scenario) resolvePolicySpec(o DeployOptions) (mc.PolicySpec, error) {
	spec := sc.CheckerPolicy
	if o.PolicySpec != nil {
		spec = *o.PolicySpec
	}
	if o.Policy != "" {
		spec.Kind = o.Policy
	}
	if o.MCStates > 0 {
		spec.Base.States = o.MCStates
	}
	if o.Workers > 0 {
		spec.Base.Workers = o.Workers
	}
	// Validate the kind here so a bad -policy string is a Deploy error,
	// not a controller panic mid-deployment.
	if _, err := spec.New(); err != nil {
		return mc.PolicySpec{}, err
	}
	return spec, nil
}
