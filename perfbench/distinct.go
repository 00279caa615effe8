package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"prospector/internal/core"
)

// distinctSpecs are the two pool keys of the distinct workload, mixed
// by distinctWeights: LP-LF carries the median, LP+LF (whose warm
// chain breaks most often) the tail.
var (
	distinctSpecs = []spec{
		{seed: 1, kind: core.KindLPNoFilter, n: 120, k: 20, samples: 20},
		{seed: 1, kind: core.KindLPFilter, n: 30, k: 8, samples: 15},
	}
	distinctWeights = []float64{3, 1}
)

const (
	// distinctRate is the offered load of the measured open loop, in
	// requests per second.
	distinctRate = 80.0
	// distinctChecks is how many requests per key are compared against
	// the cold reference: the first ones of that key in the schedule.
	distinctChecks = 6
)

// arrival is one scheduled open-loop request.
type arrival struct {
	at    time.Duration // offset from the start of the loop
	key   int
	frac  float64 // budget as a fraction of the key's NAIVE-k cost
	check bool
}

// schedule draws Poisson arrivals at rate per second over dur, each
// with a key picked by weight and a budget fraction drawn uniformly
// from [budgetLo, budgetHi). The same seed gives the same schedule.
func schedule(seed int64, rate float64, dur time.Duration, weights []float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	total := 0.0
	for _, w := range weights {
		total += w
	}
	checks := make([]int, len(weights))
	var out []arrival
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return out
		}
		u, key := rng.Float64()*total, 0
		for key < len(weights)-1 && u >= weights[key] {
			u -= weights[key]
			key++
		}
		frac := budgetLo + (budgetHi-budgetLo)*rng.Float64()
		out = append(out, arrival{at: t, key: key, frac: frac, check: checks[key] < distinctChecks})
		checks[key]++
	}
}

// spinWindow is how long before a due time the generator stops
// sleeping and starts yielding.
const spinWindow = 2 * time.Millisecond

// loopResult is one open-loop request's outcome.
type loopResult struct {
	r   reply
	lat time.Duration // from the due time to the answer
}

// openLoop replays arrivals against the pool from one generator
// goroutine, each request on its own goroutine, and waits for all of
// them. Latency runs from each request's due time, so a stall also
// charges the requests it delayed. It returns the per-arrival results
// and how late the generator released each request.
func openLoop(pl *pool, arrivals []arrival, tr *tracer) ([]loopResult, series) {
	res := make([]loopResult, len(arrivals))
	lag := make(series, 0, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.at)
		// Sleep to just short of the due time, then yield until it: a
		// plain sleep wakes late by the timer's slack, which would be
		// charged to every request.
		if d := time.Until(due) - spinWindow; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		lag.addDur(time.Since(due))
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			k := pl.keys[a.key]
			req, root := pl.nextReq(), tr.newID()
			r := pl.call(k, a.frac*k.scn.naive, req, root)
			end := time.Now()
			tr.recordAs(root, spanRequest, req, 0, due, end)
			res[i] = loopResult{r: r, lat: end.Sub(due)}
		}(i, a, due)
	}
	wg.Wait()
	return res, lag
}

// runDistinct: an open loop of Poisson arrivals at distinctRate with
// continuous random budgets on two keys, so no two requests coalesce.
func runDistinct(o phaseOpts) (*phase, error) {
	ph := &phase{planners: len(distinctSpecs), noun: "plan"}
	pl, err := setUp(distinctSpecs, o, ph)
	if err != nil {
		return nil, err
	}
	defer pl.close()
	arrivals := schedule(o.seed, distinctRate, o.dur, distinctWeights)
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("empty schedule for %s at %g requests/s", o.dur, distinctRate)
	}

	t0 := time.Now()
	res, lag := openLoop(pl, arrivals, o.tr)
	ph.elapsed = time.Since(t0)
	ph.heapMB = liveHeapMB()

	perKey := make([]series, len(pl.keys))
	var sc scorer
	checked := 0
	for i, a := range arrivals {
		ph.attempted++
		ok, err := outcome(res[i].r)
		if err != nil {
			return nil, err
		}
		if !ok {
			ph.failed++
			continue
		}
		ph.lat.addDur(res[i].lat)
		perKey[a.key].addDur(res[i].lat)
		k := pl.keys[a.key]
		if err := sc.add(k.scn, res[i].r.body); err != nil {
			return nil, err
		}
		if a.check {
			if err := checkServed(k.scn, a.frac*k.scn.naive, res[i].r.body); err != nil {
				return nil, err
			}
			checked++
		}
	}
	ph.done = len(ph.lat)
	ph.acc, ph.mj = sc.means()
	lg := summarize(lag)
	ph.genLagMS = lg.tail
	ph.info = append(ph.info,
		fmt.Sprintf("offered_rate_rps %g (requests scheduled %d)", distinctRate, len(arrivals)),
		fmt.Sprintf("gen_lag_ms p50 %.4f p%g %.4f max %.4f", lg.p50, lg.tailPct, lg.tail, lg.max),
		fmt.Sprintf("reference-checked %d plans", checked))
	for i, s := range perKey {
		if len(s) > 0 {
			sm := summarize(s)
			ph.info = append(ph.info, fmt.Sprintf("key %v: n %d p50_ms %.4f p%g_ms %.4f",
				pl.keys[i].scn.spec, sm.n, sm.p50, sm.tailPct, sm.tail))
		}
	}
	return ph, nil
}

// The --ladder mode steps the distinct open loop through fixed offered
// rates and reports the highest one whose tail latency meets
// ladderLimitMS with nothing shed. A rate that builds a backlog fails
// the limit, because latency runs from each request's due time.
var ladderRates = []float64{10, 20, 40, 80, 160, 320}

const ladderLimitMS = 1500.0

func runLadder(seed int64, dur time.Duration, w io.Writer) (*result, error) {
	pl, err := setUp(distinctSpecs, phaseOpts{setups: 1}, &phase{})
	if err != nil {
		return nil, err
	}
	defer pl.close()
	res := &result{Correct: true}
	best := 0.0
	for i, rate := range ladderRates {
		arrivals := schedule(seed+int64(i), rate, dur, distinctWeights)
		out, lag := openLoop(pl, arrivals, nil)
		var lat series
		var failed int64
		for _, r := range out {
			ok, err := outcome(r.r)
			if err != nil {
				return nil, err
			}
			if !ok {
				failed++
				continue
			}
			lat.addDur(r.lat)
		}
		res.Attempted += int64(len(out))
		res.Failed += failed
		s, lg := summarize(lat), summarize(lag)
		pass := failed == 0 && len(lat) > 0 && s.tail <= ladderLimitMS
		fmt.Fprintf(w, "# rate %g rps: n %d failed %d p50 %.4f ms p%g %.4f ms gen_lag_ms max %.4f pass %v\n",
			rate, len(out), failed, s.p50, s.tailPct, s.tail, lg.max, pass)
		if !pass {
			break
		}
		best = rate
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("ladder scheduled no requests")
	}
	fmt.Fprintf(w, "%-28s %14.6g %s (limit: tail <= %g ms, nothing shed)\n", "max_rate_rps", best, "1/s", ladderLimitMS)
	res.Metrics = map[string]metric{"max_rate_rps": {Value: best, Unit: "1/s"}}
	return res, nil
}
