package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/obs"
	"parbitonic/internal/spmd"
)

// The dispatch tests pin the work-conserving batcher without timing
// thresholds: executors are wedged at a gate, and the tests wait for
// pipeline states (a run started, the dispatcher holding n requests)
// before they let the next run go. Waiting is polling with a generous
// failure deadline; no assertion depends on how long anything took.

// waitFor polls cond until it holds, failing the test if it never does.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitHeld waits until the dispatcher holds held requests (the batch it
// keeps for the next free executor, plus a parked misfit) and the
// admission queue holds queued more.
func waitHeld[E element.Elem](t *testing.T, s *ServerOf[E], held, queued int) {
	t.Helper()
	waitFor(t, "dispatcher state", func() bool {
		return int(s.held.Load()) == held && len(s.queue) == queued
	})
}

// stepCharger gates engine runs: processor 0 of every run reports on
// started and then waits for one token on step — until release, after
// which every run passes freely (release is idempotent, so cleanup can
// always call it and a failed test still closes its server).
type stepCharger struct {
	spmd.Charger
	started chan struct{}
	step    chan struct{}
	done    chan struct{}
	release func()
}

func (g *stepCharger) Start(p *spmd.PC) {
	if p.ID == 0 {
		select {
		case g.started <- struct{}{}:
			select {
			case <-g.step:
			case <-g.done:
			}
		case <-g.done:
		}
	}
	g.Charger.Start(p)
}

// newWedgedServer starts a one-executor server whose engine runs the
// returned stepCharger gates, and wedges the executor with a first
// request: on return that request's run waits at the gate and the
// dispatcher holds nothing. wedged yields the request's outcome.
func newWedgedServer(t *testing.T, cfg Config) (s *Server, g *stepCharger, wedged <-chan error) {
	t.Helper()
	g = &stepCharger{started: make(chan struct{}), step: make(chan struct{}), done: make(chan struct{})}
	g.release = sync.OnceFunc(func() { close(g.done) })
	cfg.Engine.WrapCharger = func(inner spmd.Charger) spmd.Charger {
		g.Charger = inner
		return g
	}
	cfg.Parallel = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.release()
		s.Close()
	})
	done := make(chan error, 1)
	go func() {
		_, err := s.Sort(context.Background(), []uint32{2, 1})
		done <- err
	}()
	<-g.started
	waitHeld(t, s, 0, 0) // the dispatcher has let go of the wedge too
	return s, g, done
}

// submit sorts in on its own goroutine under request ID id ("" mints
// one) and stores the result in *out; wg.Wait covers it.
func submit(t *testing.T, s *Server, wg *sync.WaitGroup, id string, in []uint32, out *[]uint32) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := context.Background()
		if id != "" {
			ctx = obs.WithRequestID(ctx, id)
		}
		got, err := s.Sort(ctx, in)
		if err != nil {
			t.Errorf("request %q: %v", id, err)
		}
		*out = got
	}()
}

// submitAll submits every input; wait returns once all are done.
func submitAll(t *testing.T, s *Server, ins [][]uint32) (outs [][]uint32, wait func()) {
	var wg sync.WaitGroup
	outs = make([][]uint32, len(ins))
	for i := range ins {
		submit(t, s, &wg, "", ins[i], &outs[i])
	}
	return outs, wg.Wait
}

// checkOwnKeys asserts every caller got exactly its own keys, sorted.
func checkOwnKeys(t *testing.T, ins, outs [][]uint32) {
	t.Helper()
	for i := range ins {
		want := sortedRef(ins[i])
		if len(outs[i]) != len(want) {
			t.Fatalf("request %d: %d keys back, want %d", i, len(outs[i]), len(want))
		}
		for j := range want {
			if outs[i][j] != want[j] {
				t.Fatalf("request %d: result wrong at %d", i, j)
			}
		}
	}
}

// activeRequests returns the member request IDs of the one engine run
// in flight.
func activeRequests(t *testing.T, s *Server) []string {
	t.Helper()
	active := s.Metrics().ActiveBatches()
	if len(active) != 1 {
		t.Fatalf("%d runs active, want 1", len(active))
	}
	return active[0].Requests
}

// TestDispatchIdleExecutorRunsSolo: requests sent one after the other
// find an idle executor and run at once, alone — no window holds them
// for companions that are not coming.
func TestDispatchIdleExecutorRunsSolo(t *testing.T) {
	s, err := New(Config{
		Engine:   parbitonic.Config{Processors: 2, Backend: parbitonic.Native},
		MaxBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ins := [][]uint32{{5, 3, 9, 1}, {8, 2, 7}}
	outs := make([][]uint32, len(ins))
	for i, in := range ins {
		if outs[i], err = s.Sort(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	}
	checkOwnKeys(t, ins, outs)
	batches, batched := s.Metrics().BatchCount()
	if batches != 2 || batched != 0 {
		t.Errorf("BatchCount = %v runs, %v batched requests; want 2 runs, 0 batched", batches, batched)
	}
}

// TestDispatchBacklogBatches: k requests queued behind a busy executor
// come back as ⌈k/MaxBatch⌉ runs, each formed while the previous one
// runs, and every caller gets exactly its own keys.
func TestDispatchBacklogBatches(t *testing.T) {
	const k, maxBatch = 10, 4
	s, g, wedged := newWedgedServer(t, Config{
		Engine:     parbitonic.Config{Processors: 2, Backend: parbitonic.Native},
		MaxBatch:   maxBatch,
		QueueDepth: 16,
	})

	rng := rand.New(rand.NewSource(3))
	ins := make([][]uint32, k)
	for i := range ins {
		ins[i] = randKeys(rng, 50+7*i, 1<<20)
	}
	outs, wait := submitAll(t, s, ins)

	// While a run is in flight the dispatcher fills the held batch to
	// MaxBatch and leaves the rest queued; each release hands that
	// batch over and the next one forms behind it.
	runs := 0
	for left := k; left > 0; runs++ {
		held := min(left, maxBatch)
		waitHeld(t, s, held, left-held)
		g.step <- struct{}{}
		<-g.started
		left -= held
	}
	g.step <- struct{}{}
	wait()
	if err := <-wedged; err != nil {
		t.Fatal(err)
	}
	checkOwnKeys(t, ins, outs)
	if want := (k + maxBatch - 1) / maxBatch; runs != want {
		t.Fatalf("formed %d batches, want %d", runs, want)
	}
	batches, batched := s.Metrics().BatchCount()
	if batches != float64(1+runs) || batched != k {
		t.Errorf("BatchCount = %v runs, %v batched requests; want %d runs (wedge + %d batches), %d batched",
			batches, batched, 1+runs, runs, k)
	}
}

// TestDispatchMisfitHeadsNextBatch: a request that does not fit behind
// the held batch parks as the head of the next batch, and a later
// request that would fit does not overtake it — FIFO order holds.
func TestDispatchMisfitHeadsNextBatch(t *testing.T) {
	s, g, wedged := newWedgedServer(t, Config{
		Engine:       parbitonic.Config{Processors: 2, Backend: parbitonic.Native},
		MaxBatch:     8,
		MaxBatchKeys: 1000,
	})

	rng := rand.New(rand.NewSource(5))
	ins := [][]uint32{randKeys(rng, 600, 1<<20), randKeys(rng, 600, 1<<20), randKeys(rng, 300, 1<<20)}
	ids := []string{"misfit-a", "misfit-b", "misfit-c"}
	outs := make([][]uint32, len(ins))
	var wg sync.WaitGroup
	// a is held; b (600+600 > 1000 keys) parks as the next head; c
	// would fit beside a but must stay queued behind b.
	for i, want := range [][2]int{{1, 0}, {2, 0}, {2, 1}} {
		submit(t, s, &wg, ids[i], ins[i], &outs[i])
		waitHeld(t, s, want[0], want[1])
	}

	g.step <- struct{}{} // the wedge finishes; a runs alone
	<-g.started
	if got := activeRequests(t, s); len(got) != 1 || got[0] != "misfit-a" {
		t.Errorf("first batch = %v, want [misfit-a]", got)
	}
	waitHeld(t, s, 2, 0) // b heads the next batch and c joins it
	g.step <- struct{}{}
	<-g.started
	if got := activeRequests(t, s); len(got) != 2 || got[0] != "misfit-b" || got[1] != "misfit-c" {
		t.Errorf("second batch = %v, want [misfit-b misfit-c]", got)
	}
	g.step <- struct{}{}
	wg.Wait()
	if err := <-wedged; err != nil {
		t.Fatal(err)
	}
	checkOwnKeys(t, ins, outs)
	batches, batched := s.Metrics().BatchCount()
	if batches != 3 || batched != 2 {
		t.Errorf("BatchCount = %v runs, %v batched requests; want 3 runs, 2 batched", batches, batched)
	}
}

// TestDispatchCloseDeliversHeldBatch: Close while the dispatcher holds
// a batch for a busy executor still runs that batch and delivers every
// member's result before Close returns.
func TestDispatchCloseDeliversHeldBatch(t *testing.T) {
	s, g, wedged := newWedgedServer(t, Config{
		Engine:   parbitonic.Config{Processors: 2, Backend: parbitonic.Native},
		MaxBatch: 4,
	})
	rng := rand.New(rand.NewSource(9))
	ins := [][]uint32{randKeys(rng, 100, 1<<20), randKeys(rng, 130, 1<<20), randKeys(rng, 70, 1<<20)}
	outs, wait := submitAll(t, s, ins)
	waitHeld(t, s, len(ins), 0)

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	waitFor(t, "Close to stop admission", func() bool {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.closed
	})
	g.release()
	wait()
	if err := <-wedged; err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	checkOwnKeys(t, ins, outs)
	batches, batched := s.Metrics().BatchCount()
	if batches != 2 || batched != float64(len(ins)) {
		t.Errorf("BatchCount = %v runs, %v batched requests; want 2 runs, %d batched", batches, batched, len(ins))
	}
}

// TestRetryAfterFromEngineHistory: the overload hint is the mean
// measured engine-run time × the runs the backlog needs ÷ executors,
// rounded up to whole seconds with a 1s floor.
func TestRetryAfterFromEngineHistory(t *testing.T) {
	s, g, wedged := newWedgedServer(t, Config{
		Engine:     parbitonic.Config{Processors: 2, Backend: parbitonic.Native},
		MaxBatch:   2,
		QueueDepth: 3,
	})
	// One run is in flight but none has finished: no history, no backlog.
	if got := s.retryAfterSeconds(ErrOverloaded); got != 1 {
		t.Errorf("no backlog, no history: Retry-After %d, want the 1s floor", got)
	}
	if got := s.retryAfterSeconds(errors.New("other")); got != 0 {
		t.Errorf("non-refusal error: Retry-After %d, want 0 (no hint)", got)
	}

	// Fill the pipeline behind the wedge: two requests held, three queued.
	ins := make([][]uint32, 5)
	for i := range ins {
		ins[i] = []uint32{uint32(i + 7), 3, 1}
	}
	// Submit in two steps so the 3-slot queue never overflows before
	// the dispatcher has pulled the first two.
	var wg sync.WaitGroup
	outs := make([][]uint32, len(ins))
	for i := range ins {
		submit(t, s, &wg, "", ins[i], &outs[i])
		if i == 1 {
			waitHeld(t, s, 2, 0)
		}
	}
	waitHeld(t, s, 2, 3)
	if _, err := s.Sort(context.Background(), []uint32{1}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue: got %v, want ErrOverloaded", err)
	}

	// Known history: runs of 1s and 2s, mean 1.5s. The backlog of five
	// needs ⌈5/2⌉ = 3 runs on one executor: 4.5s, rounded up to 5.
	s.m.observeEngineRun(time.Second)
	s.m.observeEngineRun(2 * time.Second)
	if got := s.retryAfterSeconds(ErrOverloaded); got != 5 {
		t.Errorf("Retry-After %d, want 5 (1.5s × 3 runs ÷ 1 executor, rounded up)", got)
	}

	g.release()
	wg.Wait()
	if err := <-wedged; err != nil {
		t.Fatal(err)
	}
	checkOwnKeys(t, ins, outs)
}
