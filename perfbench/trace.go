package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"prospector/internal/core"
	"prospector/internal/plan"
	"prospector/internal/serve"
)

// Span names recorded by the traced run, one per layer boundary the
// benchmark calls across.
const (
	spanRequest    = "bench.request"    // one request or query, end to end
	spanHandler    = "serve.handler"    // serve.Handler.ServeHTTP
	spanNewPlanner = "core.new_planner" // PlannerSource.NewPlanner
	spanOpenPlan   = "core.open_plan"   // a planner's first, chain-opening Plan
	spanPlan       = "core.plan"        // every later Plan
	spanSolve      = "lp.solve"         // one lp Model.Solve, from lp.Options.Now
	spanSnapshot   = "core.snapshot"    // core.NewSnapshot
	spanBuild      = "network.build"    // network.Build
	spanAdd        = "sample.add"       // sample.Set.Add
	spanInstall    = "sim.install"      // sim.RunInstall
	spanEpoch      = "sim.epoch"        // sim.Run
)

// span is one recorded interval. Spans of one request share Req; Parent
// is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the whole run; write saves them
// once the run ends. A nil *tracer records nothing, so untraced code
// paths call it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ids   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores one finished span and returns its ID (0 on a nil
// tracer).
func (t *tracer) record(name string, req, parent int64, start, end time.Time) int64 {
	id := t.newID()
	t.recordAs(id, name, req, parent, start, end)
	return id
}

// newID reserves a span ID for a span recorded later with recordAs,
// so its children can name it as their parent while it is open.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

// recordAs stores a span under an ID reserved with newID.
func (t *tracer) recordAs(id int64, name string, req, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the time its children
// cover. Children of one span run one after another, so their
// durations are summed; a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int64]time.Duration {
	byID := make(map[int64]span, len(spans))
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		self[s.ID] = s.dur()
	}
	for _, c := range spans {
		p, ok := byID[c.Parent]
		if !ok {
			continue
		}
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			self[p.ID] -= time.Duration(hi - lo)
		}
	}
	return self
}

// lpClock is the lp.Options.Now of one snapshot in the traced run. The
// solver reads the clock exactly twice per Model.Solve, on entry and on
// exit, and each snapshot's planner runs on a single serve worker, so
// consecutive readings pair up into solve intervals.
type lpClock struct {
	mu     sync.Mutex
	open   time.Time
	inside bool
	solves [][2]time.Time
}

func (c *lpClock) now() time.Time {
	t := time.Now()
	c.mu.Lock()
	if c.inside {
		c.solves = append(c.solves, [2]time.Time{c.open, t})
	} else {
		c.open = t
	}
	c.inside = !c.inside
	c.mu.Unlock()
	return t
}

// drain returns and forgets the solve intervals closed so far.
func (c *lpClock) drain() [][2]time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.solves
	c.solves = nil
	return out
}

// ownerKey names one (pool key, budget) pair in flight.
type ownerKey struct {
	key  int
	bits uint64
}

// owners links the worker-side core.plan spans to the request that
// caused the solve. A request registers before calling the handler; the
// solve for its budget claims the earliest registration. A request
// still registered when its handler returns was answered by another
// request's solve (coalesced) or failed before dispatch.
type owners struct {
	mu sync.Mutex
	m  map[ownerKey][]int64
}

func newOwners() *owners { return &owners{m: make(map[ownerKey][]int64)} }

func (o *owners) add(k ownerKey, req int64) {
	o.mu.Lock()
	o.m[k] = append(o.m[k], req)
	o.mu.Unlock()
}

// claim pops the earliest request registered for k, or 0.
func (o *owners) claim(k ownerKey) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	q := o.m[k]
	if len(q) == 0 {
		return 0
	}
	req := q[0]
	if len(q) == 1 {
		delete(o.m, k)
	} else {
		o.m[k] = q[1:]
	}
	return req
}

// drop removes req if no solve claimed it.
func (o *owners) drop(k ownerKey, req int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	q := o.m[k]
	for i, r := range q {
		if r == req {
			q = append(q[:i:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(o.m, k)
	} else {
		o.m[k] = q
	}
}

// probe is the traced run's view of one pool key: the tracer, the
// key's lp clock, and where its requests register. handlers maps a
// request ID to its serve.handler span ID so core.plan spans can be
// parented to it.
type probe struct {
	tr       *tracer
	key      int
	clock    *lpClock
	owners   *owners
	handlers *sync.Map // request ID -> serve.handler span ID
}

// tracedSource wraps the PlannerSource the Provider returns, so planner
// stamping and every Plan call inside serve are timed.
type tracedSource struct {
	src serve.PlannerSource
	pb  probe
}

func (s tracedSource) NewPlanner() (core.Planner, error) {
	t0 := time.Now()
	pl, err := s.src.NewPlanner()
	s.pb.tr.record(spanNewPlanner, 0, 0, t0, time.Now())
	if err != nil {
		return nil, err
	}
	return &tracedPlanner{pl: pl, pb: s.pb}, nil
}

// tracedPlanner times Plan and attaches the lp.solve intervals the
// key's clock collected during it. Owned by one serve worker.
type tracedPlanner struct {
	pl     core.Planner
	pb     probe
	opened bool
}

func (p *tracedPlanner) Name() string { return p.pl.Name() }

func (p *tracedPlanner) Plan(budget float64) (*plan.Plan, error) {
	req := p.pb.owners.claim(ownerKey{p.pb.key, math.Float64bits(budget)})
	var parent int64
	if h, ok := p.pb.handlers.Load(req); ok {
		parent = h.(int64)
	}
	t0 := time.Now()
	out, err := p.pl.Plan(budget)
	t1 := time.Now()
	name := spanPlan
	if !p.opened {
		name, p.opened = spanOpenPlan, true
	}
	id := p.pb.tr.record(name, req, parent, t0, t1)
	for _, iv := range p.pb.clock.drain() {
		p.pb.tr.record(spanSolve, req, id, iv[0], iv[1])
	}
	return out, err
}

// traceFile is where a traced run writes its spans, inside the build
// directory the benchmark already owns.
func traceFile(workload string, seed int64) string {
	return filepath.Join(buildDir(), fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
}

// buildDir is the benchmark's scratch directory in the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}
