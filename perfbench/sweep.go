package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"prospector/internal/core"
)

// sweepSpec is the scenario of the legacy BenchmarkServe* benchmarks
// in internal/serve (seed 3, n=60, k=10, 15 samples), served as LP+LF.
var sweepSpec = spec{seed: 3, kind: core.KindLPFilter, n: 60, k: 10, samples: 15}

// Budgets are drawn from the paper's Figure 3 range, as fractions of
// NAIVE-k's collection cost.
const budgetLo, budgetHi = 0.05, 0.6

const (
	sweepClients = 8
	sweepPoints  = 32
	sweepChecks  = 4 // axis points compared against the cold reference
	sweepSkew    = 4 // a client yields up to sweepSkew-1 times before each request
)

// sweepAxis is the shared ascending budget axis, in mJ.
func sweepAxis(naive float64) []float64 {
	axis := make([]float64, sweepPoints)
	for i := range axis {
		axis[i] = (budgetLo + (budgetHi-budgetLo)*float64(i)/(sweepPoints-1)) * naive
	}
	return axis
}

// sweepClient is one closed-loop client's record.
type sweepClient struct {
	lat               series
	bodies            [sweepPoints][]byte
	attempted, failed int64
	err               error
}

// request sends the client's request for axis point j.
func (cl *sweepClient) request(pl *pool, key *poolKey, j int, budget float64, tr *tracer) {
	req, root := pl.nextReq(), tr.newID()
	t := time.Now()
	r := pl.call(key, budget, req, root)
	end := time.Now()
	tr.recordAs(root, spanRequest, req, 0, t, end)
	cl.attempted++
	ok, err := outcome(r)
	if err != nil {
		cl.err = err
		return
	}
	if !ok {
		cl.failed++
		return
	}
	cl.lat.addDur(end.Sub(t))
	if cl.bodies[j] == nil {
		cl.bodies[j] = r.body
	} else if !bytes.Equal(cl.bodies[j], r.body) {
		cl.err = gate("two responses for budget %g mJ differ", budget)
	}
}

// runSweep: 8 closed-loop clients walk one shared budget axis in
// lockstep on one pool key, from its lowest point upward.
func runSweep(o phaseOpts) (*phase, error) {
	ph := &phase{planners: 1, noun: "plan"}
	pl, err := setUp([]spec{sweepSpec}, o, ph)
	if err != nil {
		return nil, err
	}
	defer pl.close()
	scn := pl.keys[0].scn
	axis := sweepAxis(scn.naive)
	rng := rand.New(rand.NewSource(o.seed))
	key := pl.keys[0]

	clients := make([]sweepClient, sweepClients)
	t0 := time.Now()
	deadline := t0.Add(o.dur)
	// Lockstep: all clients send their request for one axis point
	// together, and the next point starts once every one is answered.
	// Within a step, each client first yields a seeded number of times,
	// so the seed decides the order requests reach the pool and how
	// they split into batches, while the solve sequence stays the axis.
	for i, stop := 0, false; !stop && (i == 0 || time.Now().Before(deadline)); i++ {
		j := i % sweepPoints
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(cl *sweepClient, yields int) {
				defer wg.Done()
				for y := 0; y < yields; y++ {
					runtime.Gosched()
				}
				cl.request(pl, key, j, axis[j], o.tr)
			}(&clients[c], rng.Intn(sweepSkew))
		}
		wg.Wait()
		for c := range clients {
			stop = stop || clients[c].err != nil
		}
	}
	ph.elapsed = time.Since(t0)
	ph.heapMB = liveHeapMB()

	var served [sweepPoints][]byte
	for c := range clients {
		cl := &clients[c]
		if cl.err != nil {
			return nil, cl.err
		}
		ph.lat = append(ph.lat, cl.lat...)
		ph.attempted += cl.attempted
		ph.failed += cl.failed
		for j, b := range cl.bodies {
			switch {
			case b == nil:
			case served[j] == nil:
				served[j] = b
			case !bytes.Equal(served[j], b):
				return nil, gate("clients were served different plans for budget %g mJ", axis[j])
			}
		}
	}
	ph.done = len(ph.lat)

	var sc scorer
	for j, b := range served {
		if b == nil {
			continue
		}
		if err := sc.add(scn, b); err != nil {
			return nil, fmt.Errorf("score plan at %g mJ: %w", axis[j], err)
		}
	}
	ph.acc, ph.mj = sc.means()
	checked := 0
	for _, j := range rng.Perm(sweepPoints) {
		if served[j] == nil || checked == sweepChecks {
			continue
		}
		if err := checkServed(scn, axis[j], served[j]); err != nil {
			return nil, err
		}
		checked++
	}
	ph.info = append(ph.info, fmt.Sprintf("axis_points_served %d of %d, reference-checked %d",
		sc.n, sweepPoints, checked))
	return ph, nil
}
