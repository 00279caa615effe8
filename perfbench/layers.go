package main

import (
	"time"

	"prospector/internal/obs"
)

// metricDef is one reported metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, reported for every
// workload. Latency, throughput and accuracy are per request on the
// serving workloads and per query on lifecycle. The latency tail is not
// among them: on distinct it is set by a few dozen warm-chain breaks
// per run and varies too much between runs to carry a bound, so it is
// reported unbounded as e2e.tail_ms.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"accuracy", "fraction"},
	{"energy_mj_per_epoch", "mJ"},
	{"heap_live_mb", "MB"},
}

// perLayer are the traced run's metrics, reported for every workload
// (0 where the workload never calls the layer). The last two come from
// the traced run's untraced half: the end-to-end latency tail, and how
// late the open-loop generator released its tail requests.
var perLayer = []metricDef{
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.queue_wait_ms.tail", "ms"},
	{"serve.dispatch_ms", "ms"},
	{"serve.batch_size", "count"},
	{"serve.coalesce_rate", "fraction"},
	{"serve.shed", "count"},
	{"core.snapshot_ms", "ms"},
	{"core.open_ms", "ms"},
	{"core.plan_ms.p50", "ms"},
	{"core.plan_ms.tail", "ms"},
	{"core.round_ms", "ms"},
	{"lp.solve_ms.p50", "ms"},
	{"lp.solve_ms.tail", "ms"},
	{"lp.solves", "count"},
	{"lp.warm_hit_rate", "fraction"},
	{"lp.chain_breaks", "count"},
	{"lp.pivots_per_solve", "count"},
	{"lp.degenerate_share", "fraction"},
	{"lp.bound_flips_per_solve", "count"},
	{"lp.presolve_rows_removed", "count"},
	{"lp.share_of_plan", "fraction"},
	{"lp.share_of_request", "fraction"},
	{"sample.add_us", "us"},
	{"network.build_ms", "ms"},
	{"sim.install_ms", "ms"},
	{"sim.epoch_us", "us"},
	{"sim.messages_per_epoch", "count"},
	{"obs.trace_overhead", "fraction"},
	{"e2e.tail_ms", "ms"},
	{"bench.gen_lag_ms", "ms"},
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// zeroNaN maps an empty series's NaN to 0.
func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// layers derives the per-layer metrics (all but obs.trace_overhead)
// from a traced phase's spans and its registry counters.
func layers(spans []span, reg *obs.Registry, planners int) map[string]float64 {
	self := selfTimes(spans)
	byID := make(map[int64]span, len(spans))
	durs := make(map[string]series)
	for _, s := range spans {
		byID[s.ID] = s
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
	}
	med := func(name string) float64 { return zeroNaN(median(durs[name])) }

	var wait, dispatch, round series
	var planTime, lpInPlan, reqTime, lpTime time.Duration
	for _, s := range spans {
		switch s.Name {
		case spanPlan, spanOpenPlan:
			planTime += s.dur()
			if s.Name == spanPlan {
				round.addDur(self[s.ID])
			}
			if h, ok := byID[s.Parent]; ok && h.Name == spanHandler {
				wait.addDur(time.Duration(s.Start - h.Start))
				dispatch.addDur(time.Duration(h.End - s.End))
			}
		case spanSolve:
			lpTime += s.dur()
			if p, ok := byID[s.Parent]; ok && (p.Name == spanPlan || p.Name == spanOpenPlan) {
				lpInPlan += s.dur()
			}
		case spanRequest:
			reqTime += s.dur()
		}
	}
	ws, ps, ls := summarize(wait), summarize(durs[spanPlan]), summarize(durs[spanSolve])
	c := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	batch := reg.Histogram("serve.batch_size", nil)

	return map[string]float64{
		"serve.queue_wait_ms.p50":  zeroNaN(ws.p50),
		"serve.queue_wait_ms.tail": zeroNaN(ws.tail),
		"serve.dispatch_ms":        zeroNaN(median(dispatch)),
		"serve.batch_size":         ratio(batch.Sum(), float64(batch.Count())),
		"serve.coalesce_rate":      ratio(c("serve.coalesced"), c("serve.requests")),
		"serve.shed":               c("serve.shed_total"),
		"core.snapshot_ms":         med(spanSnapshot),
		"core.open_ms":             med(spanNewPlanner) + med(spanOpenPlan),
		"core.plan_ms.p50":         zeroNaN(ps.p50),
		"core.plan_ms.tail":        zeroNaN(ps.tail),
		"core.round_ms":            zeroNaN(median(round)),
		"lp.solve_ms.p50":          zeroNaN(ls.p50),
		"lp.solve_ms.tail":         zeroNaN(ls.tail),
		"lp.solves":                c("lp.solves"),
		"lp.warm_hit_rate":         reg.Gauge("lp.warm_hit_rate").Value(),
		"lp.chain_breaks":          c("lp.cold_solves") - float64(planners),
		"lp.pivots_per_solve":      ratio(c("lp.pivots"), c("lp.solves")),
		"lp.degenerate_share":      ratio(c("lp.degenerate_pivots"), c("lp.pivots")),
		"lp.bound_flips_per_solve": ratio(c("lp.bound_flips"), c("lp.solves")),
		"lp.presolve_rows_removed": c("lp.presolve.rows_removed"),
		"lp.share_of_plan":         ratio(lpInPlan.Seconds(), planTime.Seconds()),
		"lp.share_of_request":      ratio(lpTime.Seconds(), reqTime.Seconds()),
		"sample.add_us":            1000 * med(spanAdd),
		"network.build_ms":         med(spanBuild),
		"sim.install_ms":           med(spanInstall),
		"sim.epoch_us":             1000 * med(spanEpoch),
		"sim.messages_per_epoch":   ratio(c("sim.messages"), float64(len(durs[spanEpoch]))),
	}
}
