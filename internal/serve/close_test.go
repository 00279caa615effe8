package serve_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"prospector/internal/core"
	"prospector/internal/obs"
	"prospector/internal/plan"
	"prospector/internal/serve"
)

// instantSource answers every budget with one fixed plan, immediately.
type instantSource struct{ plan *plan.Plan }

func (s instantSource) NewPlanner() (core.Planner, error) { return instantPlanner(s), nil }

type instantPlanner struct{ plan *plan.Plan }

func (instantPlanner) Name() string                       { return "instant" }
func (p instantPlanner) Plan(float64) (*plan.Plan, error) { return p.plan, nil }

// TestServeCloseRacesSubmit: Close races Submit on several keys, half
// of which are still inside the provider when Close runs. Every call
// must return a plan or ErrClosed — never a send on a closed channel —
// and no worker may outlive Close, including for keys that finish
// opening after it. Run with -race.
func TestServeCloseRacesSubmit(t *testing.T) {
	src := instantSource{plan: newBlockingSource(t).plan}
	reg := obs.NewRegistry()
	const keys = 6
	const perKey = 3
	opening := make(chan struct{}, keys*perKey) // a slow key entered the provider
	gate := make(chan struct{})                 // releases the slow keys
	provider := func(key serve.Key) (serve.PlannerSource, error) {
		if key.K%2 == 1 {
			opening <- struct{}{}
			<-gate
		}
		return src, nil
	}
	svc, err := serve.New(serve.Options{
		QueueDepth: 8, BatchMax: 4, Now: time.Now, Obs: reg,
	}, provider)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, keys*perKey)
	served := make(chan struct{}, keys*perKey)
	for k := 0; k < keys; k++ {
		key := serve.Key{Network: "race", Planner: "instant", K: k}
		for c := 0; c < perKey; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				first := true
				for i := 0; ; i++ {
					p, err := svc.Submit(key, float64(1+c+i%5), time.Time{})
					switch {
					case errors.Is(err, serve.ErrClosed):
						return
					case errors.Is(err, serve.ErrQueueFull):
						// Admission shed under the tiny queue; retry.
					case err != nil:
						errs <- fmt.Errorf("key %v: %v", key, err)
						return
					case p != src.plan:
						errs <- fmt.Errorf("key %v: foreign plan %v", key, p)
						return
					case first:
						first = false
						served <- struct{}{}
					}
				}
			}(c)
		}
	}
	// Close once every fast key has served and every slow key is stuck
	// opening, then let the slow keys finish opening into a closed
	// service.
	for i := 0; i < keys/2*perKey; i++ {
		<-served
	}
	for i := 0; i < keys/2; i++ {
		<-opening
	}
	svc.Close()
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := reg.Gauge("serve.workers").Value(); got != 0 {
		t.Fatalf("serve.workers = %g after Close, want 0", got)
	}
	if got := reg.Gauge("serve.queue_depth").Value(); got != 0 {
		t.Fatalf("serve.queue_depth = %g after Close, want 0", got)
	}
	svc.Close() // idempotent
}

// TestServeBacklogDispatchesInArrivalOrder: a worker stalled behind a
// backlog of 2*BatchMax+1 requests answers every one of them.
// Dispatches take the backlog in arrival order, BatchMax at a time,
// and serve each dispatch in ascending budget order.
func TestServeBacklogDispatchesInArrivalOrder(t *testing.T) {
	src := newBlockingSource(t)
	reg := obs.NewRegistry()
	const batchMax = 4
	svc, err := serve.New(serve.Options{
		QueueDepth: 64, BatchMax: batchMax, Now: newFakeClock(time.Microsecond).Now, Obs: reg,
	}, sourceProvider(src))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		go drain(src)
		svc.Close()
	}()
	key := serve.Key{Network: "test", Planner: "blocking", K: 1}

	stall := submitAsync(svc, key, 1000)
	<-src.started
	// Descending budgets, one at a time so arrival order is known.
	const backlog = 2*batchMax + 1
	var queued []chan submitResult
	for i := 0; i < backlog; i++ {
		queued = append(queued, submitAsync(svc, key, float64(backlog-i)))
		waitGauge(t, reg.Gauge("serve.queue_depth"), float64(i+1))
	}
	go drain(src)
	if r := <-stall; r.err != nil {
		t.Fatal(r.err)
	}
	for i, ch := range queued {
		if r := <-ch; r.err != nil || r.plan != src.plan {
			t.Fatalf("backlog request %d: plan %v err %v", i, r.plan, r.err)
		}
	}
	src.mu.Lock()
	got := append([]float64(nil), src.solved...)
	src.mu.Unlock()
	want := []float64{1000, 6, 7, 8, 9, 2, 3, 4, 5, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("solve order %v, want %v", got, want)
	}
	if got := reg.Histogram("serve.batch_size", nil).Count(); got != 4 {
		t.Fatalf("dispatches = %d, want 4 (sentinel, then %d, %d, 1)", got, batchMax, batchMax)
	}
}
