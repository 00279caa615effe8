package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"prospector/internal/core"
	"prospector/internal/exec"
	"prospector/internal/obs"
	"prospector/internal/plan"
	"prospector/internal/sim"
)

// lifecycleSeeds are the scenarios the lifecycle workload cycles
// through, each queried the way the prospector CLI's default one-shot
// run does (n=60, k=10, 15 samples, LP+LF at 0.3× NAIVE-k).
var lifecycleSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

const (
	lifecycleFrac   = 0.3
	lifecycleEpochs = 10
	lifecycleChecks = 2 // scenarios compared against the cold reference
)

func lifecycleSpec(seed int64) spec {
	return spec{seed: seed, kind: core.KindLPFilter, n: 60, k: 10, samples: 15}
}

// queryOut is one lifecycle query's result.
type queryOut struct {
	lat     time.Duration
	plan    *plan.Plan
	acc, mj float64 // means over the query's epochs
}

// query runs one full one-shot query: build the network, draw samples,
// freeze a snapshot, open a planner and plan, install the plan, then
// run epochs of Set.Add plus one simulated collection each. reg, when
// non-nil, receives the lp.* and sim.* metrics; with a tracer every
// layer call is recorded under request req. With heap non-nil, the
// query stores there the live heap while its snapshot and planner are
// held (untimed queries only: it forces a collection).
func query(s spec, reg *obs.Registry, tr *tracer, req int64, heap *float64) (*queryOut, error) {
	root := tr.newID()
	t0 := time.Now()
	scn, err := s.build(tr, req, root)
	if err != nil {
		return nil, err
	}
	var clock *lpClock
	var now func() time.Time
	if tr != nil {
		clock = &lpClock{}
		now = clock.now
	}
	snap, err := scn.snapshot(reg, now, tr, req, root)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	pl, err := snap.NewPlanner()
	tr.record(spanNewPlanner, req, root, t, time.Now())
	if err != nil {
		return nil, err
	}
	t = time.Now()
	p, err := pl.Plan(lifecycleFrac * scn.naive)
	if id := tr.record(spanOpenPlan, req, root, t, time.Now()); clock != nil {
		for _, iv := range clock.drain() {
			tr.record(spanSolve, req, id, iv[0], iv[1])
		}
	}
	if err != nil {
		return nil, err
	}
	if heap != nil {
		*heap = liveHeapMB()
		runtime.KeepAlive(snap)
		runtime.KeepAlive(pl)
	}
	cfg := sim.DefaultConfig(scn.cfg.Net)
	cfg.Obs = reg
	t = time.Now()
	_, err = sim.RunInstall(cfg, p)
	tr.record(spanInstall, req, root, t, time.Now())
	if err != nil {
		return nil, err
	}
	vals := make([][]float64, lifecycleEpochs)
	results := make([]*sim.Result, lifecycleEpochs)
	for e := range vals {
		vals[e] = scn.field.Next()
		if err := addSample(scn.cfg.Samples, vals[e], tr, req, root); err != nil {
			return nil, err
		}
		t = time.Now()
		results[e], err = sim.Run(cfg, p, vals[e])
		tr.record(spanEpoch, req, root, t, time.Now())
		if err != nil {
			return nil, err
		}
	}
	end := time.Now()
	tr.recordAs(root, spanRequest, req, 0, t0, end)

	out := &queryOut{lat: end.Sub(t0), plan: p}
	for e, res := range results {
		out.acc += exec.Accuracy(res.Returned, vals[e], s.k)
		out.mj += res.Ledger.Total()
	}
	out.acc /= lifecycleEpochs
	out.mj /= lifecycleEpochs
	return out, nil
}

// runLifecycle: one closed-loop goroutine querying the scenario set in
// whole passes, starting at a seeded scenario, until the duration is
// spent.
func runLifecycle(o phaseOpts) (*phase, error) {
	ph := &phase{noun: "query"}
	if o.tr != nil {
		ph.reg = obs.NewRegistry()
	}
	var req int64
	for r := 0; r < o.setups; r++ {
		req++
		q, err := query(lifecycleSpec(lifecycleSeeds[0]), ph.reg, o.tr, req, nil)
		if err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, q.lat.Seconds())
	}
	rng := rand.New(rand.NewSource(o.seed))
	off := rng.Intn(len(lifecycleSeeds))
	first := make([]*queryOut, len(lifecycleSeeds))

	t0 := time.Now()
	for pass := 0; pass == 0 || time.Since(t0) < o.dur; pass++ {
		for i := range lifecycleSeeds {
			j := (off + i) % len(lifecycleSeeds)
			req++
			q, err := query(lifecycleSpec(lifecycleSeeds[j]), ph.reg, o.tr, req, nil)
			ph.attempted++
			if err != nil {
				return nil, err
			}
			ph.lat.addDur(q.lat)
			if f := first[j]; f == nil {
				first[j] = q
			} else if f.acc != q.acc || f.mj != q.mj || !samePlan(f.plan, q.plan) {
				return nil, gate("scenario %d answered differently on a repeated query", lifecycleSeeds[j])
			}
		}
	}
	ph.elapsed = time.Since(t0)
	ph.done = len(ph.lat)
	ph.planners = o.setups + ph.done

	for _, q := range first {
		ph.acc += q.acc
		ph.mj += q.mj
	}
	ph.acc /= float64(len(first))
	ph.mj /= float64(len(first))

	// The gate: a repeated untimed query must reproduce accuracy and
	// energy exactly, and plans must equal the cold reference. The
	// repeat, always of the first scenario, also measures the live heap
	// of one query's working state.
	const j = 0
	again, err := query(lifecycleSpec(lifecycleSeeds[j]), nil, nil, 0, &ph.heapMB)
	if err != nil {
		return nil, err
	}
	if again.acc != first[j].acc || again.mj != first[j].mj {
		return nil, gate("scenario %d: accuracy/energy %v/%v, then %v/%v on a repeat",
			lifecycleSeeds[j], first[j].acc, first[j].mj, again.acc, again.mj)
	}
	for _, j := range rng.Perm(len(lifecycleSeeds))[:lifecycleChecks] {
		s := lifecycleSpec(lifecycleSeeds[j])
		scn, err := s.build(nil, 0, 0)
		if err != nil {
			return nil, err
		}
		ref, err := scn.reference()
		if err != nil {
			return nil, err
		}
		want, err := ref.Plan(lifecycleFrac * scn.naive)
		if err != nil {
			return nil, err
		}
		if !samePlan(first[j].plan, want) {
			return nil, gate("query plan for %v differs from the cold reference", s)
		}
	}
	ph.info = append(ph.info, fmt.Sprintf("passes over %d scenarios: %d, starting at scenario seed %d",
		len(lifecycleSeeds), ph.done/len(lifecycleSeeds), lifecycleSeeds[off]))
	return ph, nil
}
