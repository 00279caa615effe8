package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prospector/internal/obs"
	"prospector/internal/plan"
	"prospector/internal/serve"
)

// Service sizing: prospector -serve's defaults.
const (
	serveQueue   = 64
	serveWorkers = 1
	serveBatch   = 16
)

// pool is one in-process plan service over a set of scenarios, one
// pool key each, driven through serve.Handler without sockets.
type pool struct {
	svc  *serve.Service
	reg  *obs.Registry
	keys []*poolKey
	tr   *tracer
	// handlers maps a request ID to its open serve.handler span ID
	// (traced run only).
	handlers sync.Map
	reqs     atomic.Int64
}

// nextReq allocates a request ID shared by every span of one request.
func (p *pool) nextReq() int64 { return p.reqs.Add(1) }

// poolKey is one scenario's key and handler.
type poolKey struct {
	idx    int
	scn    *scenario
	key    serve.Key
	h      http.Handler
	clock  *lpClock
	owners *owners
}

// openPool builds a service whose provider freezes each scenario's
// snapshot on first use, as prospector -serve does. With a tracer the
// provider's sources are wrapped so planner calls are timed, and each
// snapshot gets its own lp clock.
func openPool(scns []*scenario, tr *tracer) (*pool, error) {
	p := &pool{reg: obs.NewRegistry(), tr: tr}
	byNet := make(map[string]*poolKey, len(scns))
	for i, s := range scns {
		k := &poolKey{idx: i, scn: s, key: serve.Key{
			Network: s.spec.String(), Gen: s.cfg.Samples.Gen(), Planner: s.kind, K: s.k}}
		if tr != nil {
			k.clock, k.owners = &lpClock{}, newOwners()
		}
		p.keys = append(p.keys, k)
		byNet[k.key.Network] = k
	}
	provider := func(key serve.Key) (serve.PlannerSource, error) {
		k := byNet[key.Network]
		if k == nil || key != k.key {
			return nil, fmt.Errorf("no scenario for key %v", key)
		}
		var now func() time.Time
		if tr != nil {
			now = k.clock.now
		}
		snap, err := k.scn.snapshot(p.reg, now, tr, 0, 0)
		if err != nil || tr == nil {
			return snap, err
		}
		return tracedSource{src: snap, pb: probe{tr: tr, key: k.idx, clock: k.clock,
			owners: k.owners, handlers: &p.handlers}}, nil
	}
	svc, err := serve.New(serve.Options{QueueDepth: serveQueue, WorkersPerKey: serveWorkers,
		BatchMax: serveBatch, Now: time.Now, Obs: p.reg}, provider)
	if err != nil {
		return nil, err
	}
	p.svc = svc
	for _, k := range p.keys {
		k.h = serve.Handler(svc, k.key)
	}
	return p, nil
}

func (p *pool) close() { p.svc.Close() }

// setUp builds the scenarios and opens their pool o.setups times,
// timing each set-up into ph.setups from the first network build until
// the first request of every key is answered. It keeps the last pool,
// with held-out epochs drawn for scoring.
func setUp(specs []spec, o phaseOpts, ph *phase) (*pool, error) {
	var pl *pool
	for r := 0; r < o.setups; r++ {
		if pl != nil {
			pl.close()
		}
		t0 := time.Now()
		scns := make([]*scenario, len(specs))
		for i, sp := range specs {
			s, err := sp.build(o.tr, 0, 0)
			if err != nil {
				return nil, err
			}
			scns[i] = s
		}
		p, err := openPool(scns, o.tr)
		if err != nil {
			return nil, err
		}
		if err := p.open(); err != nil {
			p.close()
			return nil, err
		}
		ph.setups = append(ph.setups, time.Since(t0).Seconds())
		pl = p
	}
	for _, k := range pl.keys {
		k.scn.drawHeldOut()
	}
	ph.reg = pl.reg
	return pl, nil
}

// reply is one handler response.
type reply struct {
	code int
	body []byte
}

// call sends one /plan request for budget on key k. req and parent
// identify the request's spans in a traced run.
func (p *pool) call(k *poolKey, budget float64, req, parent int64) reply {
	r := httptest.NewRequest(http.MethodGet, "/plan?budget="+strconv.FormatFloat(budget, 'g', -1, 64), nil)
	w := httptest.NewRecorder()
	if p.tr == nil {
		k.h.ServeHTTP(w, r)
		return reply{w.Code, w.Body.Bytes()}
	}
	own := ownerKey{k.idx, math.Float64bits(budget)}
	hid := p.tr.newID()
	p.handlers.Store(req, hid)
	k.owners.add(own, req)
	t0 := time.Now()
	k.h.ServeHTTP(w, r)
	t1 := time.Now()
	k.owners.drop(own, req)
	p.handlers.Delete(req)
	p.tr.recordAs(hid, spanHandler, req, parent, t0, t1)
	return reply{w.Code, w.Body.Bytes()}
}

// open answers the first request of every key, at 0.3× NAIVE-k.
func (p *pool) open() error {
	for _, k := range p.keys {
		if r := p.call(k, 0.3*k.scn.naive, p.nextReq(), 0); r.code != http.StatusOK {
			return fmt.Errorf("open %v: HTTP %d: %s", k.key, r.code, r.body)
		}
	}
	return nil
}

// outcome classifies a reply: a plan (ok), a shed that counts as a
// failed request, or an unexpected status that fails the correctness
// gate.
func outcome(r reply) (ok bool, err error) {
	switch r.code {
	case http.StatusOK:
		return true, nil
	case http.StatusServiceUnavailable, http.StatusTooManyRequests:
		return false, nil
	}
	return false, gate("unexpected HTTP %d: %s", r.code, r.body)
}

// planDoc is the part of the /plan response that identifies the plan.
type planDoc struct {
	Kind      string `json:"kind"`
	Bandwidth []int  `json:"bandwidth"`
	Chosen    []bool `json:"chosen"`
}

// decodePlan rebuilds the plan a /plan response describes through the
// plan constructors, and checks the rebuilt plan matches the response
// field for field.
func decodePlan(s *scenario, body []byte) (*plan.Plan, error) {
	var d planDoc
	if err := json.Unmarshal(body, &d); err != nil {
		return nil, fmt.Errorf("decode /plan response: %w", err)
	}
	var p *plan.Plan
	var err error
	switch d.Kind {
	case plan.Selection.String():
		p, err = plan.NewSelection(s.cfg.Net, d.Chosen)
	case plan.Filtering.String():
		p, err = plan.NewFiltering(s.cfg.Net, d.Bandwidth)
	case plan.Proof.String():
		p, err = plan.NewProof(s.cfg.Net, d.Bandwidth)
	default:
		err = fmt.Errorf("unknown plan kind %q", d.Kind)
	}
	if err != nil {
		return nil, gate("served plan for %v: %v", s.spec, err)
	}
	if !slices.Equal(p.Bandwidth, d.Bandwidth) || !slices.Equal(p.Chosen, d.Chosen) {
		return nil, gate("served %s plan for %v is inconsistent: bandwidth %v, chosen %v", d.Kind, s.spec, d.Bandwidth, d.Chosen)
	}
	return p, nil
}

// checkServed compares a served plan against the scenario's cold
// reference planner at the same budget.
func checkServed(s *scenario, budget float64, body []byte) error {
	got, err := decodePlan(s, body)
	if err != nil {
		return err
	}
	ref, err := s.reference()
	if err != nil {
		return err
	}
	want, err := ref.Plan(budget)
	if err != nil {
		return fmt.Errorf("reference plan %v at %g mJ: %w", s.spec, budget, err)
	}
	if !samePlan(got, want) {
		return gate("served plan for %v at %g mJ differs from the cold reference:\n served    %v\n reference %v",
			s.spec, budget, got, want)
	}
	return nil
}

// scorer accumulates accuracy and energy of served plans.
type scorer struct {
	acc, mj float64
	n       int
}

func (sc *scorer) add(s *scenario, body []byte) error {
	p, err := decodePlan(s, body)
	if err != nil {
		return err
	}
	acc, mj, err := s.score(p)
	if err != nil {
		return err
	}
	sc.acc += acc
	sc.mj += mj
	sc.n++
	return nil
}

func (sc *scorer) means() (acc, mj float64) {
	if sc.n == 0 {
		return math.NaN(), math.NaN()
	}
	return sc.acc / float64(sc.n), sc.mj / float64(sc.n)
}
