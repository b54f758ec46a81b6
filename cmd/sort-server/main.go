// Command sort-server runs the parallel bitonic sort as an HTTP
// service: pooled engines, request batching, and bounded-queue
// backpressure (internal/serve), with Prometheus metrics and optional
// chaos injection.
//
// Usage:
//
//	sort-server [-addr :8357] [-p procs] [-alg name] [-backend name]
//	            [-verify] [-max-batch N] [-max-batch-keys N]
//	            [-queue N] [-parallel N]
//	            [-retries N] [-breaker] [-degraded]
//	            [-slo-ms N] [-slo-target F] [-slog]
//	            [-chaos-every N] [-chaos-seed S]
//	            [-auto] [-profile FILE]
//
// With -auto, each server consults the cost-model planner per request
// size instead of the fixed -p/-alg shape: engines pool under the
// plan-chosen shapes, choices surface as plan_chosen/plan-drift
// metrics and plan events, and -p caps the candidate P (see
// internal/tune and TUNING.md; run bitonic-sort -calibrate to write
// the machine profile).
//
// Endpoints: POST /sort (JSON {"keys":[...]} or
// application/octet-stream — a legacy little-endian uint32 stream or
// a versioned binary frame whose header names the element type: u32,
// u64, f32, f64 or kv64; optional ?timeout_ms=N), GET /healthz
// (503-unready under sustained SLO burn), GET /stats, GET /metrics
// (Prometheus, including per-stage latency histograms, tail quantile
// estimates and runtime health), GET /debug/sortz (live ops page;
// ?format=json), GET /debug/vars (expvar). Every element type is
// served; each gets its own engine pool and batcher behind one
// gateway. Every response echoes X-Request-ID (client-supplied,
// traceparent-derived, or minted). See README.md for the frame layout
// and OPERATIONS.md for the runbook.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parbitonic"
	"parbitonic/internal/fault"
	"parbitonic/internal/obs"
	"parbitonic/internal/serve"
)

var algorithms = map[string]parbitonic.Algorithm{
	"smart":          parbitonic.SmartBitonic,
	"cyclic-blocked": parbitonic.CyclicBlockedBitonic,
	"blocked-merge":  parbitonic.BlockedMergeBitonic,
	"sample":         parbitonic.SampleSort,
	"radix":          parbitonic.RadixSort,
}

func main() {
	addr := flag.String("addr", ":8357", "listen address")
	p := flag.Int("p", 4, "processors per engine (power of two)")
	algName := flag.String("alg", "smart", "algorithm: smart, cyclic-blocked, blocked-merge, sample, radix")
	backendName := flag.String("backend", "native", "execution backend: native (wall-clock) or simulated (model time)")
	verifyFlag := flag.Bool("verify", false, "verify every run's output (sortedness + checksum) before responding")
	maxBatch := flag.Int("max-batch", 16, "most requests coalesced into one engine run (1 disables batching)")
	maxBatchKeys := flag.Int("max-batch-keys", 1<<20, "summed key cap of a batch; longer requests run solo")
	queue := flag.Int("queue", 256, "admission queue depth; a full queue rejects with 429")
	parallel := flag.Int("parallel", 0, "concurrent engine runs (0 = GOMAXPROCS/p)")
	retries := flag.Int("retries", 2, "retry budget per request for transient engine failures (0 disables)")
	breaker := flag.Bool("breaker", true, "per-element-type circuit breaker: fail fast while the backend is persistently failing")
	degraded := flag.Bool("degraded", true, "degraded-mode fallback: serve via a sequential sort when the breaker is open or retries are exhausted")
	sloMS := flag.Float64("slo-ms", 0, "latency SLO threshold in milliseconds (0 disables SLO tracking)")
	sloTarget := flag.Float64("slo-target", 0.99, "fraction of requests that must finish under -slo-ms")
	slogFlag := flag.Bool("slog", false, "structured run/event logs (log/slog JSON on stderr, request IDs included)")
	chaosEvery := flag.Int("chaos-every", 0, "inject a fault on every Nth engine run (0 disables chaos)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "chaos plan seed (replayable)")
	auto := flag.Bool("auto", false, "autotune: the cost model picks each run's shape per request size (-p caps P, -alg is ignored; see TUNING.md)")
	profilePath := flag.String("profile", "", "machine profile path for -auto (default: the user cache dir)")
	flag.Parse()

	alg, ok := algorithms[*algName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algName)
		os.Exit(2)
	}
	var backend parbitonic.Backend
	switch *backendName {
	case "native":
		backend = parbitonic.Native
	case "simulated":
		backend = parbitonic.Simulated
	default:
		fmt.Fprintf(os.Stderr, "unknown backend %q\n", *backendName)
		os.Exit(2)
	}

	runMetrics := obs.NewMetrics()
	var sink obs.Sink = runMetrics
	if *slogFlag {
		sink = obs.Multi(runMetrics, obs.NewSlogSink(slog.New(slog.NewJSONHandler(os.Stderr, nil))))
	}
	engine := parbitonic.Config{
		Processors:  *p,
		Algorithm:   alg,
		Backend:     backend,
		Verify:      *verifyFlag,
		Obs:         sink,
		Auto:        *auto,
		ProfilePath: *profilePath,
	}
	var injected func() uint64
	if *chaosEvery > 0 {
		engine.WrapCharger, injected = fault.ChaosWrapper(fault.ChaosConfig{
			P:     *p,
			Every: *chaosEvery,
			Seed:  *chaosSeed,
			Sink:  runMetrics,
		})
		fmt.Fprintf(os.Stderr, "sort-server: CHAOS ON — a fault every %d runs, seed %d\n", *chaosEvery, *chaosSeed)
	}

	cfgRetries := *retries
	if cfgRetries <= 0 {
		cfgRetries = -1 // flag 0 means "no retries"; Config 0 means "default"
	}
	gw, err := serve.NewGateway(serve.Config{
		Engine:         engine,
		MaxBatch:       *maxBatch,
		MaxBatchKeys:   *maxBatchKeys,
		QueueDepth:     *queue,
		Parallel:       *parallel,
		Retries:        cfgRetries,
		DisableBreaker: !*breaker,
		Degraded:       *degraded,
		SLO: obs.SLOConfig{
			Threshold: time.Duration(*sloMS * float64(time.Millisecond)),
			Target:    *sloTarget,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	hs := &http.Server{Addr: *addr, Handler: serve.NewGatewayHandler(gw, runMetrics)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "sort-server: draining...")
		hs.Close()
		gw.Close()
		if injected != nil {
			fmt.Fprintf(os.Stderr, "sort-server: %d faults injected\n", injected())
		}
	}()

	sloNote := "off"
	if *sloMS > 0 {
		sloNote = fmt.Sprintf("%gms@%g", *sloMS, *sloTarget)
	}
	fmt.Fprintf(os.Stderr, "sort-server: listening on %s (P=%d, %s, %s backend, batch<=%d, queue %d, retries %d, breaker %v, degraded %v, slo %s)\n",
		*addr, *p, *algName, *backendName, *maxBatch, *queue, *retries, *breaker, *degraded, sloNote)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	<-done
}
