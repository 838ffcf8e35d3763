package controller

import (
	"testing"
	"time"

	"crystalball/internal/props"
	"crystalball/internal/runtime"
	"crystalball/internal/sim"
	"crystalball/internal/simnet"
	"crystalball/internal/sm"
	"crystalball/internal/testsvc"
)

// awareSvc wraps testsvc.Svc with a service-specific steering policy: on a
// predicted inconsistency it freezes its counter gossip (clears peers).
type awareSvc struct {
	testsvc.Svc
	Predictions int
	Frozen      bool
}

func newAware(peers ...sm.NodeID) sm.Factory {
	inner := testsvc.NewWithPeers(peers...)
	return func(self sm.NodeID) sm.Service {
		s := inner(self).(*testsvc.Svc)
		return &awareSvc{Svc: *s}
	}
}

// Clone must preserve the wrapper.
func (a *awareSvc) Clone() sm.Service {
	inner := a.Svc.Clone().(*testsvc.Svc)
	return &awareSvc{Svc: *inner, Predictions: a.Predictions, Frozen: a.Frozen}
}

func (a *awareSvc) HandlePredictedInconsistency(ctx sm.Context, properties []string, culprit sm.Event) {
	a.Predictions++
	a.Frozen = true
	a.Peers = map[sm.NodeID]bool{}
}

func TestSteeringAwareServiceReceivesPredictions(t *testing.T) {
	s := sim.New(41)
	net := simnet.New(s, simnet.UniformPath{Latency: 5 * time.Millisecond, BwBps: 1e9})
	factory := newAware(1, 2)
	counterBelow := props.Property{
		Name: "CounterBelowLimit",
		Check: func(v *props.View) bool {
			for _, id := range v.IDs() {
				if a, ok := v.Get(id).Svc.(*awareSvc); ok && a.N >= 2 {
					return false
				}
			}
			return true
		},
	}
	cfg := DefaultConfig(props.Set{counterBelow}, factory)
	cfg.Mode = ExecutionSteering
	cfg.SnapshotInterval = 2 * time.Second
	cfg.Policy.Base.States = 2000
	cfg.PerStateCost = 50 * time.Microsecond
	cfg.EnableISC = false
	var ctrls []*Controller
	for _, id := range []sm.NodeID{1, 2} {
		node := runtime.NewNode(s, net, id, factory)
		c := New(s, node, cfg, snapCfg())
		c.Start()
		ctrls = append(ctrls, c)
	}
	s.RunFor(30 * time.Second)

	var delivered int64
	var predictions int
	var filters int64
	for _, c := range ctrls {
		delivered += c.Stats.PredictionsDelivered
		filters += c.Stats.FiltersInstalled
		predictions += c.Node().Service().(*awareSvc).Predictions
	}
	if delivered == 0 {
		t.Fatal("no predictions delivered to the steering-aware service")
	}
	if predictions == 0 {
		t.Fatal("service handler never invoked")
	}
	if filters != 0 {
		t.Fatal("steering-aware services must not get generic filters")
	}
	// The service policy (freezing gossip) must have taken effect.
	frozen := false
	for _, c := range ctrls {
		if c.Node().Service().(*awareSvc).Frozen {
			frozen = true
		}
	}
	if !frozen {
		t.Fatal("service-specific policy did not run")
	}
}

func TestNotifyPredictionOnUnawareService(t *testing.T) {
	s := sim.New(42)
	net := simnet.New(s, simnet.UniformPath{Latency: 5 * time.Millisecond, BwBps: 1e9})
	node := runtime.NewNode(s, net, 1, testsvc.NewWithPeers(1, 2))
	if node.NotifyPrediction([]string{"P"}, nil) {
		t.Fatal("plain services must report not-steering-aware")
	}
}
