package main

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"
	"time"

	"parbitonic"
	"parbitonic/internal/obs"
	"parbitonic/internal/serve"
)

// serve-kv64-mixed: an in-process serve.ServerOf[KV64] on native smart
// P=1 engines with the default serve.Config. Request sizes are
// log-uniform from 256 to 64K records and not rounded, so padding and
// tag-bit batching run. Chosen because the queue, batcher and copy-out
// do the work here, plus the kernels on 16-byte records; the remap
// layer does nothing at P=1, so a remap change must leave this
// workload unchanged. Bypasses remap and the simulator.
//
// Phase A is an open loop: requests arrive at seeded exponential
// intervals at serveRate, each timed from when it was due, so a stall
// also charges the requests queued behind it. It gives p50_ms and
// p90_ms. Phase B is a closed loop of serveCallers callers sending
// back to back, which gives the saturation throughput mkeys_s and
// heap_peak_mb. B runs before A.
const (
	serveMinKeys, serveMaxKeys = 256, 1 << 16
	servePool                  = 128 // distinct seeded requests, cycled through
	serveSetups                = 9
	serveSetupKeys             = 4096 // the first request of each cold set-up: the median size
	serveCallers               = 2
	// serveRate is about a third of phase B's saturation rate (7.5
	// Mkeys/s, about 640 requests/s of the 11.8K-record mean size) on
	// a 2-CPU Xeon VM (go1.24) at the commit that defined the workload.
	// At two-thirds, one run in three on that host, which loses 10-35%
	// of its CPU time to other guests, tipped into overload (p90 143
	// ms against 11 ms), so the tail would not repeat between runs.
	serveRate = 212.0 // requests per second
	// servePhaseA is phase A's share of the measured time.
	servePhaseA = 0.6
)

func runServe(o runOpts) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	r := newRNG(o.seed, 2)
	reqs := make([][]parbitonic.KV64, servePool)
	sums := make([]kvSum, servePool)
	for i, n := range logUniformSizes(r, servePool, serveMinKeys, serveMaxKeys) {
		reqs[i] = kvRecords(r, n)
		sums[i] = sumKV(reqs[i])
	}
	// Cold set-ups send requests of one fixed size, so that setup_s
	// does not depend on which sizes the seed drew.
	for i := 0; i < serveSetups; i++ {
		reqs = append(reqs, kvRecords(r, serveSetupKeys))
		sums = append(sums, sumKV(reqs[len(reqs)-1]))
	}
	setupReqs, reqs := reqs[servePool:], reqs[:servePool]
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var mu sync.Mutex // guards rep from the request goroutines
	verify := func(in int, out []parbitonic.KV64, err error) bool {
		if err == nil && o.tamper != nil {
			o.tamper(out, nil)
		}
		if err == nil {
			err = checkKV(out, sums[in])
		}
		mu.Lock()
		defer mu.Unlock()
		rep.attempted++
		if err != nil {
			rep.fail("request %d (%d records): %v", in, sums[in].n, err)
			return false
		}
		return true
	}

	cfg := serve.Config{Engine: parbitonic.Config{Processors: 1, Backend: parbitonic.Native}}
	var srv *serve.ServerOf[parbitonic.KV64]
	var setupS []float64
	for i := 0; i < serveSetups; i++ {
		if srv != nil {
			srv.Close()
		}
		settle()
		op := tr.op()
		t0, s0 := time.Now(), tr.begin()
		s, err := serve.NewOf[parbitonic.KV64](cfg)
		tr.end(op, "serve", "setup.new", s0, 0)
		if err != nil {
			return nil, err
		}
		s1 := tr.begin()
		out, err := s.Sort(ctx, setupReqs[i])
		setupS = append(setupS, time.Since(t0).Seconds())
		tr.set(tr.end(op, "serve", "setup.first_op", s1, serveSetupKeys), err != nil, runStats{})
		verify(servePool+i, out, err)
		srv = s
	}
	defer srv.Close()

	measure := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		measure = measure * 6 / 10 // the rest goes to the kernel probes
	}
	phaseA := time.Duration(float64(measure) * servePhaseA)

	settle()
	closedLoop(srv, reqs, verify, nil, 200*time.Millisecond) // warm-up, discarded

	// Phase B runs first, and the heap peak is taken there: with at
	// most serveCallers requests in flight, the pooled engines' shapes
	// do not depend on how arrivals happened to bunch up.
	settle()
	a0 := allocCount()
	m := srv.Metrics()
	heap := startHeapSampler()
	ok0 := m.RequestCount("ok")
	b0, _ := m.BatchCount()
	keys, elapsed, nB := closedLoop(srv, reqs, verify, tr, measure-phaseA)
	ok1 := m.RequestCount("ok")
	b1, _ := m.BatchCount()
	heapMB := heap.stop()

	settle()
	st0 := stageTotals(m.Stages())
	lat, traced, late := openLoop(srv, reqs, verify, tr, newRNG(o.seed, 3), phaseA)
	st1 := stageTotals(m.Stages())
	allocs := float64(allocCount()-a0) / float64(len(lat)+nB)

	if !o.trace {
		rep.setE2E("setup_s", median(setupS))
		rep.setE2E("p50_ms", median(lat))
		rep.setE2E("p90_ms", quantile(lat, 0.9))
		rep.setE2E("mkeys_s", float64(keys)/elapsed.Seconds()/1e6)
		rep.setE2E("heap_peak_mb", heapMB)
		return rep, nil
	}

	for st, name := range map[obs.Stage]string{
		obs.StageQueue: "serve.queue_ms", obs.StageBatch: "serve.batch_ms",
		obs.StageEngine: "serve.engine_ms", obs.StageCopyOut: "serve.copyout_ms",
	} {
		d := st1[st].sum - st0[st].sum
		n := float64(st1[st].count - st0[st].count)
		rep.setLayer(name, d*1e3/n)
	}
	rep.setLayer("serve.reqs_per_run", (ok1-ok0)/(b1-b0))
	rep.setLayer("serve.retries", m.RetryCount())
	rep.setLayer("serve.degraded", m.DegradedCount())
	rep.setLayer("serve.rejected", m.RequestCount("overloaded")+m.RequestCount("breaker-open"))
	rep.setLayer("serve.gen_late_ms", quantile(late, 0.9))
	rep.setLayer("engine.allocs_per_op", allocs)
	rep.setLayer("setup.new_ms", median(durMs(tr.named("setup.new"))))
	rep.setLayer("setup.first_op_ms", median(durMs(tr.named("setup.first_op"))))
	var plain, tracedLat []float64
	for i, l := range lat {
		if traced[i] {
			tracedLat = append(tracedLat, l)
		} else {
			plain = append(plain, l)
		}
	}
	rep.setLayer("tail.p90_ms", quantile(lat, 0.9))
	rep.setLayer("trace.overhead_ms", median(tracedLat)-median(plain))

	settle()
	probe := time.Duration(o.seconds*float64(time.Second)) - measure
	probeRadix(tr, rep, reqs, probe/3)
	probeRefs(tr, rep, reqs, func(b []parbitonic.KV64) {
		slices.SortFunc(b, func(x, y parbitonic.KV64) int { return cmp.Compare(x.K, y.K) })
	}, func(in int, out []parbitonic.KV64) error { return checkKV(out, sums[in]) }, probe/3)
	return rep, finishTrace(tr, rep, o)
}

type stageTotal struct {
	sum   float64
	count uint64
}

func stageTotals(s *obs.Stages) (out [obs.NumStages]stageTotal) {
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		out[st].sum, out[st].count = s.StageSeconds(st)
	}
	return out
}

// openLoop sends requests at seeded exponential intervals for d,
// one goroutine per request so a slow reply never delays the next
// arrival, and waits for every reply. It returns each request's
// latency from when it was due (+Inf when it failed), whether it was
// traced (a traced run traces every other request), and how late each
// was sent.
func openLoop(srv *serve.ServerOf[parbitonic.KV64], reqs [][]parbitonic.KV64, verify func(int, []parbitonic.KV64, error) bool, tr *tracer, r *rng, d time.Duration) (lat []float64, isTraced []bool, late []float64) {
	n := 0
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	due := start
	for {
		due = due.Add(time.Duration(r.exp(float64(time.Second) / serveRate)))
		if due.Sub(start) >= d {
			break
		}
		time.Sleep(time.Until(due))
		late = append(late, ms(time.Since(due)))
		in := n % len(reqs)
		traced := tr != nil && n%2 == 0
		n++
		wg.Add(1)
		go func(in int, due time.Time, traced bool) {
			defer wg.Done()
			var op int
			var s0 int64
			if traced {
				op, s0 = tr.op(), tr.begin()
			}
			out, err := srv.Sort(context.Background(), reqs[in])
			l := ms(time.Since(due))
			if traced {
				tr.set(tr.end(op, "serve", "serve.request", s0, len(reqs[in])), err != nil, runStats{})
			}
			if !verify(in, out, err) {
				l = math.Inf(1)
			}
			mu.Lock()
			lat = append(lat, l)
			isTraced = append(isTraced, traced)
			mu.Unlock()
		}(in, due, traced)
	}
	wg.Wait()
	return lat, isTraced, late
}

// closedLoop runs serveCallers callers, each sending its next request
// as soon as the previous reply is checked, for d. It returns the
// records sorted correctly, the elapsed time and the request count.
func closedLoop(srv *serve.ServerOf[parbitonic.KV64], reqs [][]parbitonic.KV64, verify func(int, []parbitonic.KV64, error) bool, tr *tracer, d time.Duration) (keys int, elapsed time.Duration, count int) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k, n := 0, 0
			for i := c; time.Now().Before(deadline); i += serveCallers {
				in := i % len(reqs)
				op, s0 := tr.op(), tr.begin()
				out, err := srv.Sort(context.Background(), reqs[in])
				tr.set(tr.end(op, "serve", "serve.request", s0, len(reqs[in])), err != nil, runStats{})
				n++
				if verify(in, out, err) {
					k += len(reqs[in])
				}
			}
			mu.Lock()
			keys += k
			count += n
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return keys, time.Since(start), count
}
