// Command perfbench is the repository benchmark. It drives the planner
// stack in-process through its public surfaces and prints, for one
// named workload, every end-to-end metric (untraced run) or every
// per-layer metric (traced run), followed by one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sweep|distinct|lifecycle --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh --workload distinct --ladder --seed N --seconds S
//
// Workloads (see README.md for why each exists and what it predicts):
//
//	sweep      8 closed-loop clients walk one shared 32-point budget axis
//	           on one LP+LF pool key; requests coalesce.
//	distinct   an open loop of Poisson arrivals with continuous random
//	           budgets on an LP-LF and an LP+LF key; nothing coalesces.
//	lifecycle  one closed-loop goroutine running the CLI's one-shot
//	           query: build, series, snapshot, plan, install, 10 epochs.
//
// The run exits non-zero, printing correct=false, when a served plan
// differs from the cold reference planner, a response has an unexpected
// HTTP status, or accuracy and energy fail to repeat exactly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// workloads maps a workload name to its phase runner.
var workloads = map[string]func(phaseOpts) (*phase, error){
	"sweep":     runSweep,
	"distinct":  runDistinct,
	"lifecycle": runLifecycle,
}

// setupRuns is how many times an untraced run sets up; setup_s is the
// median.
const setupRuns = 5

// metric is one value of the JSON result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "sweep, distinct, or lifecycle")
	seed := fs.Int64("seed", 1, "seed for the workload's request stream")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	ladder := fs.Bool("ladder", false, "distinct only: step the offered rate up a fixed ladder and report max_rate_rps")
	commit := fs.String("commit", "unknown", "commit being measured, printed with the results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || (*ladder && *name != "distinct") {
		fmt.Fprintf(stderr, "perfbench: need --workload sweep|distinct|lifecycle, --seconds > 0, --trace 0|1 (--ladder with distinct only)\n")
		return 2
	}
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	host, _ := os.Hostname()
	fmt.Fprintf(stdout, "# workload %s seed %d seconds %g trace %d\n", *name, *seed, *seconds, *traced)
	fmt.Fprintf(stdout, "# host %s %s/%s cpus %d gomaxprocs %d go %s commit %s\n",
		host, runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit)

	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	switch {
	case *ladder:
		res, err = runLadder(*seed, dur, stdout)
	case *traced == 1:
		res, err = tracedRun(runner, *name, *seed, dur, stdout)
	default:
		res, err = untracedRun(runner, *seed, dur, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if isGate(err) {
			out, _ := json.Marshal(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
			fmt.Fprintln(stdout, string(out))
		}
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// untracedRun measures the end-to-end metrics.
func untracedRun(runner func(phaseOpts) (*phase, error), seed int64, dur time.Duration, w io.Writer) (*result, error) {
	ph, err := runner(phaseOpts{seed: seed, dur: dur, setups: setupRuns})
	if err != nil {
		return nil, err
	}
	lat := summarize(ph.lat)
	vals := map[string]float64{
		"setup_s":             median(ph.setups),
		"p50_ms":              lat.p50,
		"throughput_per_s":    float64(ph.done) / ph.elapsed.Seconds(),
		"accuracy":            ph.acc,
		"energy_mj_per_epoch": ph.mj,
		"heap_live_mb":        ph.heapMB,
	}
	for _, line := range ph.info {
		fmt.Fprintln(w, "# "+line)
	}
	fmt.Fprintf(w, "# requests %d answered %d; tail is p%g of %d samples; setups %.4f s\n",
		ph.attempted, ph.done, lat.tailPct, lat.n, ph.setups)
	plural := map[string]string{"plan": "plans", "query": "queries"}[ph.noun]
	fmt.Fprintf(w, "# %s_per_s %.6g 1/s, %s_p50_ms %.6g ms, %s_tail_ms %.6g ms, fail_frac %g fraction\n",
		plural, vals["throughput_per_s"], ph.noun, lat.p50, ph.noun, lat.tail,
		ratio(float64(ph.failed), float64(ph.attempted)))
	return report(endToEnd, vals, ph, w)
}

// tracedRun splits the duration into an untraced and a traced half,
// reports the per-layer metrics of the traced half, and the tracing
// overhead as the ratio of the two halves' median latencies. Spans are
// written to the build directory when the run ends.
func tracedRun(runner func(phaseOpts) (*phase, error), name string, seed int64, dur time.Duration, w io.Writer) (*result, error) {
	plain, err := runner(phaseOpts{seed: seed, dur: dur / 2, setups: 1})
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	ph, err := runner(phaseOpts{seed: seed, dur: dur / 2, setups: 1, tr: tr})
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	vals := layers(spans, ph.reg, ph.planners)
	untraced := summarize(plain.lat)
	vals["obs.trace_overhead"] = summarize(ph.lat).p50/untraced.p50 - 1
	vals["e2e.tail_ms"] = untraced.tail
	vals["bench.gen_lag_ms"] = plain.genLagMS
	path := traceFile(name, seed)
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(w, "# %d spans written to %s\n", len(spans), path)
	ph.attempted += plain.attempted
	ph.failed += plain.failed
	return report(perLayer, vals, ph, w)
}

// report prints each metric as "name value unit" and assembles the
// result line.
func report(defs []metricDef, vals map[string]float64, ph *phase, w io.Writer) (*result, error) {
	res := &result{Correct: true, Attempted: ph.attempted, Failed: ph.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || v != v {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}
