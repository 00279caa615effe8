package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"prospector/internal/obs"
)

// phaseOpts configures one measured stretch of a workload.
type phaseOpts struct {
	seed   int64
	dur    time.Duration
	setups int     // set-up repetitions; the last one is measured
	tr     *tracer // nil: untraced
}

// phase is what one measured stretch of a workload observed.
type phase struct {
	setups            []float64 // seconds per set-up repetition
	lat               series    // per-request latency in ms
	done              int       // requests answered with a plan
	elapsed           time.Duration
	attempted, failed int64
	acc, mj           float64 // mean accuracy and energy per epoch
	heapMB            float64 // live heap holding the workload's state
	genLagMS          float64 // open loop only: tail of generator lag
	reg               *obs.Registry
	planners          int      // planners opened, each with one cold solve
	noun              string   // what one request is: "plan" or "query"
	info              []string // workload-specific result lines
}

// gateError is a failed correctness check: the run reports
// correct=false and exits non-zero.
type gateError struct{ err error }

func (g gateError) Error() string { return "correctness gate: " + g.err.Error() }

func gate(format string, args ...any) error { return gateError{fmt.Errorf(format, args...)} }

func isGate(err error) bool {
	var g gateError
	return errors.As(err, &g)
}

// liveHeapMB forces a collection and returns the live heap it found,
// in MB. Called where a workload holds its largest working state, after
// the timed window, so the collection costs no measured time.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return math.NaN()
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
