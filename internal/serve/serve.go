// Package serve is the concurrent plan-serving tier: a long-running
// service that turns the single-goroutine parametric planners
// (internal/core, //confine:goroutine) into a pool that serves many
// concurrent clients.
//
// Requests are keyed by (network, sample generation, planner kind, k)
// — the identity of one frozen planning state (core.Snapshot). Per
// key, the service keeps one buffered request channel and a fixed
// pool of warm-chain workers, each owning a planner stamped from the
// shared snapshot (own model clone, own lp.Workspace, own basis
// chain). A worker dispatch takes the next request plus whatever is
// already buffered (up to BatchMax) and serves it in ascending budget
// order, which keeps the dual-simplex recovery short; dispatches
// follow arrival order. Requests for bitwise-identical budgets
// coalesce into a single solve whose plan (immutable, see
// internal/plan) is shared across all their responses. Admission
// control is a bounded total queue depth — submissions beyond it shed
// immediately with ErrQueueFull — plus a per-request deadline judged
// at dispatch time.
//
// The service never reads the wall clock itself (this package is in
// the determinism lint scope): the owner injects one via Options.Now,
// exactly like lp.Options.Now.
package serve

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"prospector/internal/core"
	"prospector/internal/obs"
	"prospector/internal/plan"
)

// Key identifies one frozen planning state: requests with equal keys
// are answers from the same snapshot and may share workers, warm
// chains, and coalesced solves. Gen is the sample window's mutation
// generation at freeze time (core.Snapshot.Gen) — the same network
// re-snapshotted after the window slides is a different key.
type Key struct {
	Network string
	Gen     uint64
	Planner string
	K       int
}

func (k Key) String() string {
	return fmt.Sprintf("%s/gen%d/%s/k%d", k.Network, k.Gen, k.Planner, k.K)
}

// PlannerSource stamps out independent planners over one frozen
// planning state. *core.Snapshot is the production implementation.
type PlannerSource interface {
	NewPlanner() (core.Planner, error)
}

// Provider resolves a key to its planner source, typically building a
// core.Snapshot on first use. Called outside the service lock (it may
// build a whole parametric program); an error rejects the request —
// and is reported again for every retry, so providers should be cheap
// on the failure path.
type Provider func(key Key) (PlannerSource, error)

// Options tunes the service.
type Options struct {
	// QueueDepth bounds the total pending requests across all keys;
	// submissions beyond it shed with ErrQueueFull. Default 64.
	QueueDepth int
	// WorkersPerKey is the pool size per key: each worker owns one
	// planner (one warm chain) stamped from the key's source. Default 1
	// — on a single core more workers only add scheduling overhead; the
	// concurrency win comes from batching and coalescing.
	WorkersPerKey int
	// BatchMax caps how many queued requests one dispatch takes.
	// Default 16.
	BatchMax int
	// Now supplies the clock for deadlines and latency metrics.
	// Required: this package never reads the wall clock itself.
	Now func() time.Time
	// Obs receives the serve.* metrics; the planners and LP solver
	// publish their own families (core.*, lp.*) through the same
	// registry when the provider's snapshots carry it. Optional.
	Obs *obs.Registry
}

// Sentinel errors, mapped to HTTP statuses by the handler (http.go).
var (
	// ErrClosed rejects submissions after Close.
	ErrClosed = errors.New("serve: service closed")
	// ErrQueueFull sheds submissions over the queue-depth bound.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDeadline sheds requests whose deadline passed before dispatch.
	ErrDeadline = errors.New("serve: deadline exceeded before dispatch")
)

// request is one pending plan query.
type request struct {
	budget   float64
	deadline time.Time // zero: no deadline
	enqueued time.Time
	done     chan response // buffered; the worker never blocks on delivery
}

// response is the worker's answer.
type response struct {
	plan *plan.Plan
	err  error
}

// Service is the plan-serving pool. Construct with New, retire with
// Close; safe for concurrent use.
type Service struct {
	opts     Options
	provider Provider
	m        *metrics

	mu sync.Mutex
	// keys maps each open key to its request channel. Every channel has
	// capacity QueueDepth and every buffered request counts toward
	// pending, so a send made under mu after the admission check never
	// blocks.
	//guarded-by:mu
	keys map[Key]chan *request
	// queues mirrors keys in open order, so Close closes the channels
	// deterministically instead of in map order.
	//guarded-by:mu
	queues []chan *request
	// pending counts admitted requests no worker has taken yet.
	//guarded-by:mu
	pending int
	//guarded-by:mu
	closed bool
	// wg joins the worker goroutines; Close waits on it.
	wg sync.WaitGroup
}

// New builds a service over the provider. Options.Now is required;
// zero or negative sizing fields take the documented defaults.
func New(opts Options, provider Provider) (*Service, error) {
	if provider == nil {
		return nil, errors.New("serve: nil provider")
	}
	if opts.Now == nil {
		return nil, errors.New("serve: Options.Now is required (inject a clock)")
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.WorkersPerKey <= 0 {
		opts.WorkersPerKey = 1
	}
	if opts.BatchMax <= 0 {
		opts.BatchMax = 16
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	return &Service{
		opts:     opts,
		provider: provider,
		m:        newMetrics(opts.Obs),
		keys:     make(map[Key]chan *request),
	}, nil
}

// Submit enqueues one plan request and blocks until a pool worker
// answers it. A zero deadline means none. Shedding outcomes are the
// sentinel errors above; any other error came from the provider or
// the planner itself.
func (s *Service) Submit(key Key, budget float64, deadline time.Time) (*plan.Plan, error) {
	s.m.requests.Inc()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.m.shed(s.m.shedClosed)
		return nil, ErrClosed
	}
	q := s.keys[key]
	s.mu.Unlock()
	if q == nil {
		var err error
		if q, err = s.openKey(key); err != nil {
			return nil, err
		}
	}

	req := &request{budget: budget, deadline: deadline, enqueued: s.opts.Now(), done: make(chan response, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.m.shed(s.m.shedClosed)
		return nil, ErrClosed
	}
	if s.pending >= s.opts.QueueDepth {
		s.mu.Unlock()
		s.m.shed(s.m.shedFull)
		return nil, ErrQueueFull
	}
	s.pending++
	s.m.queueDepth.Set(float64(s.pending))
	q <- req // never blocks: see Service.keys; closed is false, so q is open
	s.mu.Unlock()

	resp := <-req.done
	return resp.plan, resp.err
}

// openKey resolves the provider and publishes the key's request
// channel, spawning its worker pool. The provider call and the planner
// stamping run outside the lock — both may build or clone a whole LP
// — so a racing submitter can win publication; the loser's planners
// are discarded.
func (s *Service) openKey(key Key) (chan *request, error) {
	src, err := s.provider(key)
	if err != nil {
		s.m.keyErrors.Inc()
		return nil, fmt.Errorf("serve: open %v: %w", key, err)
	}
	planners := make([]core.Planner, 0, s.opts.WorkersPerKey)
	for i := 0; i < s.opts.WorkersPerKey; i++ {
		pl, err := src.NewPlanner()
		if err != nil {
			s.m.keyErrors.Inc()
			return nil, fmt.Errorf("serve: open %v: %w", key, err)
		}
		planners = append(planners, pl)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if q := s.keys[key]; q != nil {
		s.mu.Unlock()
		return q, nil
	}
	q := make(chan *request, s.opts.QueueDepth) // sized so admitted sends never block; see Service.keys
	s.keys[key] = q
	s.queues = append(s.queues, q)
	s.m.keys.Set(float64(len(s.keys)))
	for _, pl := range planners {
		s.wg.Add(1)
		s.m.workers.Add(1)
		// The planner was stamped on this goroutine and is handed to the
		// worker whole; nothing here touches it again. The `go` statement
		// is the happens-before edge.
		//confine:transfer worker takes sole ownership of its freshly stamped planner; the spawning goroutine drops every reference
		go s.worker(q, pl)
	}
	s.mu.Unlock()
	return q, nil
}

// worker serves one key: receive a request, take what else is
// already buffered (up to BatchMax) without waiting, serve the batch,
// repeat. After Close closes q it drains the buffer and exits.
func (s *Service) worker(q <-chan *request, pl core.Planner) {
	defer s.wg.Done()
	defer s.m.workers.Add(-1)
	batch := make([]*request, 0, s.opts.BatchMax)
	var memo sweepMemo
	for r := range q {
		batch = append(batch[:0], r)
	gather:
		for len(batch) < s.opts.BatchMax {
			select {
			case r, ok := <-q:
				if !ok {
					break gather
				}
				batch = append(batch, r)
			default:
				break gather
			}
		}
		s.mu.Lock()
		s.pending -= len(batch)
		s.m.queueDepth.Set(float64(s.pending))
		s.mu.Unlock()
		// Stable: equal budgets keep arrival order.
		slices.SortStableFunc(batch, func(a, b *request) int { return cmp.Compare(a.budget, b.budget) })
		s.serveBatch(pl, batch, &memo)
	}
}

// sweepMemo is the tail of a worker's last coalescing run: the most
// recent (budget, plan) it solved. It outlives the batch because a
// key's planning state is frozen (core.Snapshot) — Plan is a pure
// function of the budget for the key's whole lifetime — so a
// duplicate budget arriving in the NEXT dispatch still shares the
// solve. That matters on few-core hosts, where lockstep clients
// trickle in one at a time and same-budget requests rarely sit in one
// batch together; it is what makes a dispatch that waits for nothing
// still coalesce.
type sweepMemo struct {
	plan   *plan.Plan
	budget float64
	have   bool
}

// serveBatch answers one ascending-budget batch on this worker's warm
// chain. Equal budgets coalesce — one solve, one immutable plan,
// shared across every waiting response — and the run carries across
// batch boundaries through memo. A planner error answers only the
// request that caused it and invalidates the memo, so a bad budget
// never poisons its neighbors.
func (s *Service) serveBatch(pl core.Planner, batch []*request, memo *sweepMemo) {
	now := s.opts.Now()
	s.m.batchSize.Observe(float64(len(batch)))
	for _, r := range batch {
		s.m.batchWaitMS.Observe(float64(now.Sub(r.enqueued).Microseconds()) / 1000)
		if !r.deadline.IsZero() && now.After(r.deadline) {
			s.m.shed(s.m.shedDeadline)
			r.done <- response{err: ErrDeadline}
			continue
		}
		if memo.have && sameBudget(r.budget, memo.budget) {
			s.m.coalesced.Inc()
			r.done <- response{plan: memo.plan}
			continue
		}
		t0 := s.opts.Now()
		p, err := pl.Plan(r.budget)
		s.m.planMS.Observe(float64(s.opts.Now().Sub(t0).Microseconds()) / 1000)
		if err != nil {
			memo.have = false
			r.done <- response{err: err}
			continue
		}
		memo.plan, memo.budget, memo.have = p, r.budget, true
		r.done <- response{plan: p}
	}
}

// Ready reports whether the service is accepting work without
// shedding: nil when open with queue headroom, the shedding error
// otherwise. Wired into /readyz so load balancers stop routing to a
// saturated instance before it starts returning 503s.
func (s *Service) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.pending >= s.opts.QueueDepth {
		return ErrQueueFull
	}
	return nil
}

// Close stops admission, lets the workers drain every queued request,
// and joins them. Idempotent; concurrent Submits either complete or
// fail with ErrClosed.
func (s *Service) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, q := range s.queues {
			close(q)
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// sameBudget is the coalescing rule: bitwise equality, because
// coalescing must never change an answer — nearby budgets are
// distinct requests. Approved float comparison (floatcmp).
func sameBudget(a, b float64) bool { return a == b }
