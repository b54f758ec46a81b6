package serve

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"parbitonic"
	"parbitonic/internal/fault"
	"parbitonic/internal/spmd"
)

func sortedRef(keys []uint32) []uint32 {
	out := append([]uint32(nil), keys...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func randKeys(rng *rand.Rand, n int, max uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = rng.Uint32() % max
	}
	return out
}

// waitGoroutines polls until the goroutine count drops back to (or
// below) base, failing the test if it does not — the no-leak check.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d now vs %d at baseline", runtime.NumGoroutine(), base)
}

func TestServeSortMatchesStdlib(t *testing.T) {
	for _, backend := range []parbitonic.Backend{parbitonic.Simulated, parbitonic.Native} {
		s, err := New(Config{
			Engine: parbitonic.Config{Processors: 4, Backend: backend, Verify: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for c := 0; c < 16; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					n := 100 + (c*31+i*17)%900 // deliberately non-power-of-two
					keys := randKeys(rand.New(rand.NewSource(int64(c*100+i))), n, 1<<28)
					want := sortedRef(keys)
					got, err := s.Sort(context.Background(), keys)
					if err != nil {
						errs <- err
						return
					}
					for j := range want {
						if got[j] != want[j] {
							errs <- errors.New("output diverges from reference")
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%v: %v", backend, err)
		}
		s.Close()
	}
}

// TestBatchingCoalesces wedges the single executor, queues concurrent
// requests behind it, then opens the gate: some must share a run, and
// every result must still be that request's own sorted keys.
func TestBatchingCoalesces(t *testing.T) {
	s, g, wedged := newWedgedServer(t, Config{
		Engine:   parbitonic.Config{Processors: 4, Backend: parbitonic.Native},
		MaxBatch: 8,
	})

	const clients = 8
	var wg sync.WaitGroup
	outs := make([][]uint32, clients)
	ins := make([][]uint32, clients)
	for c := 0; c < clients; c++ {
		ins[c] = randKeys(rand.New(rand.NewSource(int64(c))), 200+c*13, 1<<20)
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got, err := s.Sort(context.Background(), ins[c])
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			outs[c] = got
		}(c)
	}
	waitHeld(t, s, clients, 0)
	g.release()
	wg.Wait()
	if err := <-wedged; err != nil {
		t.Fatal(err)
	}
	for c := range outs {
		want := sortedRef(ins[c])
		for i := range want {
			if outs[c][i] != want[i] {
				t.Fatalf("client %d result wrong at %d", c, i)
			}
		}
	}
	if _, batched := s.Metrics().BatchCount(); batched < 2 {
		t.Errorf("expected at least one multi-request batch, got %v batched requests", batched)
	}
}

// TestFullRangeKeysRunSolo: keys using bit 31 leave no tag headroom,
// so such requests must bypass batching and still come back correct.
func TestFullRangeKeysRunSolo(t *testing.T) {
	s, err := New(Config{
		Engine:   parbitonic.Config{Processors: 4, Backend: parbitonic.Native},
		MaxBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := []uint32{^uint32(0), 0, 1<<31 + 5, 7, 1 << 31}
	want := sortedRef(keys)
	got, err := s.Sort(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("full-range result wrong at %d: got %v want %v", i, got, want)
		}
	}
	if _, batched := s.Metrics().BatchCount(); batched != 0 {
		t.Errorf("full-range request was batched (%v batched requests)", batched)
	}
}

// gateCharger blocks the first processor entering a run until the gate
// opens — a deterministic way to wedge the executor for backpressure
// tests.
type gateCharger struct {
	spmd.Charger
	gate chan struct{}
	once sync.Once
}

func (g *gateCharger) Start(p *spmd.PC) {
	g.once.Do(func() { <-g.gate })
	g.Charger.Start(p)
}

// TestOverloadTyped wedges the single executor and fills the
// single-slot queue: the next request must be rejected immediately
// with ErrOverloaded (not queued, not blocked).
func TestOverloadTyped(t *testing.T) {
	gate := make(chan struct{})
	g := &gateCharger{gate: gate}
	s, err := New(Config{
		Engine: parbitonic.Config{
			Processors: 2,
			Backend:    parbitonic.Native,
			WrapCharger: func(inner spmd.Charger) spmd.Charger {
				g.Charger = inner
				return g
			},
		},
		MaxBatch:   1,
		QueueDepth: 1,
		Parallel:   1,
	})
	if err != nil {
		t.Fatal(err)
	}

	keys := []uint32{3, 1, 2, 4}
	results := make(chan error, 3)
	submit := func() {
		_, err := s.Sort(context.Background(), keys)
		results <- err
	}
	// r1 occupies the worker (wedged at the gate); r2 is held by the
	// dispatcher waiting for the worker; r3 fills the 1-slot queue.
	go submit()
	time.Sleep(50 * time.Millisecond)
	go submit()
	time.Sleep(50 * time.Millisecond)
	go submit()
	time.Sleep(50 * time.Millisecond)

	if _, err := s.Sort(context.Background(), keys); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	if got := s.Metrics().RequestCount("overloaded"); got != 1 {
		t.Errorf("overloaded counter = %v, want 1", got)
	}

	close(gate) // release the wedge; everything queued must complete
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Errorf("queued request %d failed after release: %v", i, err)
		}
	}
	s.Close()
}

// TestPerRequestDeadline: a request whose deadline expires while the
// executor is wedged comes back with context.DeadlineExceeded right
// away — the caller is never held past its deadline.
func TestPerRequestDeadline(t *testing.T) {
	gate := make(chan struct{})
	g := &gateCharger{gate: gate}
	s, err := New(Config{
		Engine: parbitonic.Config{
			Processors: 2,
			Backend:    parbitonic.Native,
			WrapCharger: func(inner spmd.Charger) spmd.Charger {
				g.Charger = inner
				return g
			},
		},
		MaxBatch: 1,
		Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = s.Sort(ctx, []uint32{2, 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline return took %v", elapsed)
	}
	close(gate)
	s.Close()
}

// TestChaosUnderLoad injects a crash fault through the WrapCharger
// seam with retries disabled: the poisoned request fails with a
// contained *spmd.PanicError carrying the injected fault, the
// panicked engine is quarantined (destroyed, not recycled), and a
// fresh engine serves the next request correctly.
func TestChaosUnderLoad(t *testing.T) {
	// Round 1 matters: a crash AFTER the first remap leaves mid-exchange
	// scratch state behind, which engine recovery must fully clear
	// (see spmd.TestNoStaleOutsAfterAbort).
	inj := fault.NewInjector(fault.Plan{Kind: fault.Crash, Proc: 1, Round: 1})
	s, err := New(Config{
		Engine: parbitonic.Config{
			Processors:  4,
			Backend:     parbitonic.Native,
			WrapCharger: inj.Wrap,
		},
		MaxBatch: 1,
		Retries:  -1, // surface the raw containment path
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	keys := randKeys(rand.New(rand.NewSource(3)), 512, 1<<30)
	_, err = s.Sort(context.Background(), keys)
	var pe *spmd.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("expected a contained *spmd.PanicError, got %v", err)
	}
	if _, ok := pe.Value.(*fault.Crashed); !ok {
		t.Fatalf("panic value is not the injected fault: %v", pe.Value)
	}
	if !inj.Fired() {
		t.Fatal("injector did not fire")
	}
	if ps := s.Pool().Stats(); ps.Quarantined != 1 || ps.Idle != 0 {
		t.Errorf("panicked engine not quarantined: %+v", ps)
	}

	want := sortedRef(keys)
	got, err := s.Sort(context.Background(), keys)
	if err != nil {
		t.Fatalf("sort after injected crash: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-crash result wrong at %d", i)
		}
	}
}

// TestRetryHealsTransientFault is the tentpole's core promise: a
// one-shot injected crash is retried transparently — the caller sees
// a correct result and no error, the retry is counted, and the
// panicked engine was quarantined rather than recycled.
func TestRetryHealsTransientFault(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Kind: fault.Crash, Proc: 1, Round: 1})
	s, err := New(Config{
		Engine: parbitonic.Config{
			Processors:  4,
			Backend:     parbitonic.Native,
			WrapCharger: inj.Wrap,
		},
		MaxBatch: 1, // default Retries: 2
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	keys := randKeys(rand.New(rand.NewSource(7)), 512, 1<<30)
	want := sortedRef(keys)
	got, err := s.Sort(context.Background(), keys)
	if err != nil {
		t.Fatalf("retry did not heal the injected crash: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("healed result wrong at %d", i)
		}
	}
	if !inj.Fired() {
		t.Fatal("injector did not fire")
	}
	if got := s.Metrics().RetryCount(); got != 1 {
		t.Errorf("retries = %v, want 1", got)
	}
	if ps := s.Pool().Stats(); ps.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", ps.Quarantined)
	}
}

// TestCloseSemantics: Close drains queued work, rejects new work with
// ErrClosed, and releases every goroutine the server started.
func TestCloseSemantics(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := New(Config{
		Engine: parbitonic.Config{Processors: 4, Backend: parbitonic.Native},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			keys := randKeys(rand.New(rand.NewSource(int64(c))), 300, 1<<20)
			want := sortedRef(keys)
			got, err := s.Sort(context.Background(), keys)
			if err != nil {
				t.Errorf("pre-close request: %v", err)
				return
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("pre-close result wrong")
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sort(context.Background(), []uint32{2, 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed after Close, got %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	waitGoroutines(t, base)
}

// TestServeLoad64 is the acceptance load test: 64 concurrent clients
// of 4k-key requests, zero errors, and the goroutine count returns to
// baseline after drain.
func TestServeLoad64(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	base := runtime.NumGoroutine()
	s, err := New(Config{
		Engine:     parbitonic.Config{Processors: 4, Backend: parbitonic.Native},
		QueueDepth: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients, reqs, n = 64, 4, 4096
	var wg sync.WaitGroup
	var failures sync.Map
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < reqs; i++ {
				keys := randKeys(rng, n, 1<<24)
				want := sortedRef(keys)
				got, err := s.Sort(context.Background(), keys)
				if err != nil {
					failures.Store(c*1000+i, err)
					return
				}
				for j := range want {
					if got[j] != want[j] {
						failures.Store(c*1000+i, errors.New("wrong output"))
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	nfail := 0
	failures.Range(func(k, v any) bool {
		t.Errorf("request %v: %v", k, v)
		nfail++
		return nfail < 10
	})
	batches, batched := s.Metrics().BatchCount()
	t.Logf("load: %d requests, %v runs, %v batched requests, pool %+v",
		clients*reqs, batches, batched, s.Pool().Stats())
	s.Close()
	waitGoroutines(t, base)
}

// TestZeroAndErrorInputs covers the trivial edges of the front door.
func TestZeroAndErrorInputs(t *testing.T) {
	s, err := New(Config{Engine: parbitonic.Config{Processors: 2, Backend: parbitonic.Native}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out, err := s.Sort(context.Background(), nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty sort: %v %v", out, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Sort(ctx, []uint32{2, 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled sort: %v", err)
	}
	if _, err := New(Config{Engine: parbitonic.Config{Processors: 3}}); err == nil ||
		!strings.Contains(err.Error(), "power of two") {
		t.Fatalf("bad processors accepted: %v", err)
	}
}
