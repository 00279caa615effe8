package main

import (
	"fmt"
	"math/rand"
	"time"

	"prospector/internal/core"
	"prospector/internal/energy"
	"prospector/internal/exec"
	"prospector/internal/network"
	"prospector/internal/obs"
	"prospector/internal/plan"
	"prospector/internal/sample"
	"prospector/internal/workload"
)

// spec names one planning scenario the way the prospector CLI builds
// it: a seeded network of n nodes, a Gaussian field, and a window of
// past samples tracking the top k.
type spec struct {
	seed    int64
	kind    string
	n, k    int
	samples int
}

func (s spec) String() string {
	return fmt.Sprintf("%s/n%d/k%d/s%d/seed%d", s.kind, s.n, s.k, s.samples, s.seed)
}

// heldOutEpochs is how many epochs after the samples are kept to score
// returned plans.
const heldOutEpochs = 10

// scenario is a built spec: planner inputs, the NAIVE-k cost that
// budgets are expressed against, and held-out epochs for accuracy.
type scenario struct {
	spec
	cfg     core.Config
	field   *workload.GaussianField
	naive   float64
	heldOut [][]float64
}

// build constructs the scenario exactly as the prospector CLI does for
// one query (same RNG stream order), timing each layer call into tr
// under request req.
func (s spec) build(tr *tracer, req, parent int64) (*scenario, error) {
	rng := rand.New(rand.NewSource(s.seed))
	t0 := time.Now()
	net, err := network.Build(network.DefaultBuildConfig(s.n), rng)
	tr.record(spanBuild, req, parent, t0, time.Now())
	if err != nil {
		return nil, err
	}
	field, err := workload.NewGaussianField(workload.DefaultGaussianConfig(s.n), rng)
	if err != nil {
		return nil, err
	}
	set, err := sample.NewSet(s.n, s.k, 0)
	if err != nil {
		return nil, err
	}
	for _, v := range workload.Draw(field, s.samples) {
		if err := addSample(set, v, tr, req, parent); err != nil {
			return nil, err
		}
	}
	costs := plan.NewCosts(net, energy.DefaultModel())
	naive, err := core.NaiveKPlan(net, s.k)
	if err != nil {
		return nil, err
	}
	return &scenario{
		spec:  s,
		cfg:   core.Config{Net: net, Costs: costs, Samples: set, K: s.k},
		field: field,
		naive: naive.CollectionCost(net, costs) + naive.TriggerCost(net, costs),
	}, nil
}

// addSample is one timed sample.Set.Add.
func addSample(set *sample.Set, v []float64, tr *tracer, req, parent int64) error {
	t0 := time.Now()
	err := set.Add(v)
	tr.record(spanAdd, req, parent, t0, time.Now())
	return err
}

// drawHeldOut takes the epochs that follow the samples in the field's
// stream; the serving workloads score plans on them.
func (s *scenario) drawHeldOut() {
	s.heldOut = workload.Draw(s.field, heldOutEpochs)
}

// snapshot freezes the scenario for its planner kind with the given
// registry and lp clock (nil for none), timed into tr.
func (s *scenario) snapshot(reg *obs.Registry, now func() time.Time, tr *tracer, req, parent int64) (*core.Snapshot, error) {
	cfg := s.cfg
	cfg.Obs = reg
	cfg.LP.Now = now
	t0 := time.Now()
	snap, err := core.NewSnapshot(cfg, s.kind)
	tr.record(spanSnapshot, req, parent, t0, time.Now())
	return snap, err
}

// reference returns an independent cold planner for the scenario: no
// warm chain, no shared registry, no snapshot. Served plans must equal
// its plans bit for bit.
func (s *scenario) reference() (core.Planner, error) {
	cfg := s.cfg
	cfg.DisableWarm = true
	switch s.kind {
	case core.KindLPFilter:
		return core.NewLPFilter(cfg)
	case core.KindLPNoFilter:
		return core.NewLPNoFilter(cfg)
	}
	return nil, fmt.Errorf("no reference planner for %s", s.kind)
}

// score executes p on the held-out epochs with the analytic executor
// and returns mean accuracy and mean collection energy per epoch.
func (s *scenario) score(p *plan.Plan) (acc, mj float64, err error) {
	env := exec.Env{Net: s.cfg.Net, Costs: s.cfg.Costs}
	for _, vals := range s.heldOut {
		res, err := exec.Run(env, p, vals)
		if err != nil {
			return 0, 0, err
		}
		acc += res.Accuracy(vals, s.k)
		mj += res.Ledger.Total()
	}
	n := float64(len(s.heldOut))
	return acc / n, mj / n, nil
}

// samePlan is bitwise plan equality: kind, every bandwidth, every
// selection flag.
func samePlan(a, b *plan.Plan) bool {
	if a.Kind != b.Kind || len(a.Bandwidth) != len(b.Bandwidth) || len(a.Chosen) != len(b.Chosen) {
		return false
	}
	for i := range a.Bandwidth {
		if a.Bandwidth[i] != b.Bandwidth[i] {
			return false
		}
	}
	for i := range a.Chosen {
		if a.Chosen[i] != b.Chosen[i] {
			return false
		}
	}
	return true
}
