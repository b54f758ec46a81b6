// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (DESIGN.md §4 maps them). Each benchmark runs
// the experiment's workload on the simulated machine and reports, next
// to the real wall-clock ns/op, the *model* metrics the paper's tables
// contain as custom benchmark metrics (model-us/key etc.). Run with
//
//	go test -bench=. -benchmem
//
// The full tables are printed by `go run ./cmd/experiments`.
package parbitonic_test

import (
	"fmt"
	"testing"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/experiments"
	"parbitonic/internal/schedule"
	"parbitonic/internal/workload"
)

// benchN is the per-processor key count used by the benchmarks: 16K
// keys keeps a full sweep fast while staying in the asymptotic regime.
const benchN = 1 << 14

func runConfig(b *testing.B, p, n int, cfg parbitonic.Config) parbitonic.Result {
	b.Helper()
	cfg.Processors = p
	base := workload.Keys(workload.Uniform31, p*n, 1996)
	keys := make([]uint32, len(base))
	var res parbitonic.Result
	var err error
	b.SetBytes(int64(len(base) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, base)
		res, err = parbitonic.Sort(keys, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.TimePerKey()*1000, "model-ns/key")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(base)), "ns/key")
	return res
}

// BenchmarkTable51_PerKey: execution time per key for the three bitonic
// implementations on 32 processors (Table 5.1 / Figure 5.2).
func BenchmarkTable51_PerKey(b *testing.B) {
	for _, alg := range []parbitonic.Algorithm{
		parbitonic.BlockedMergeBitonic, parbitonic.CyclicBlockedBitonic, parbitonic.SmartBitonic,
	} {
		b.Run(alg.String(), func(b *testing.B) {
			runConfig(b, 32, benchN, parbitonic.Config{Algorithm: alg})
		})
	}
	// The production configuration: fully fused local computation.
	b.Run("smart-bitonic-fullsort", func(b *testing.B) {
		runConfig(b, 32, benchN, parbitonic.Config{Algorithm: parbitonic.SmartBitonic, FusePackUnpack: true})
	})
}

// BenchmarkTable52_Total: total execution time for the same three
// implementations (Table 5.2 / Figure 5.1); the model total appears as
// model-us.
func BenchmarkTable52_Total(b *testing.B) {
	for _, alg := range []parbitonic.Algorithm{
		parbitonic.BlockedMergeBitonic, parbitonic.CyclicBlockedBitonic, parbitonic.SmartBitonic,
	} {
		b.Run(alg.String(), func(b *testing.B) {
			res := runConfig(b, 32, benchN, parbitonic.Config{Algorithm: alg})
			b.ReportMetric(res.Time, "model-us-total")
		})
	}
}

// BenchmarkFig53_Speedup: sorting a fixed total (1M scaled to 256K) on
// 2..32 processors (Figure 5.3).
func BenchmarkFig53_Speedup(b *testing.B) {
	const total = 1 << 18
	for _, p := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			res := runConfig(b, p, total/p, parbitonic.Config{Algorithm: parbitonic.SmartBitonic})
			b.ReportMetric(res.Time, "model-us-total")
		})
	}
}

// BenchmarkFig54_Breakdown: communication vs computation share of the
// smart sort on 16 processors (Figure 5.4).
func BenchmarkFig54_Breakdown(b *testing.B) {
	res := runConfig(b, 16, benchN, parbitonic.Config{Algorithm: parbitonic.SmartBitonic})
	total := res.ComputeTime + res.CommTime()
	b.ReportMetric(res.ComputeTime/total*100, "compute-%")
	b.ReportMetric(res.CommTime()/total*100, "comm-%")
}

// BenchmarkTable53_ShortLong: short- vs long-message communication time
// on 16 processors (Table 5.3 / Figure 5.5).
func BenchmarkTable53_ShortLong(b *testing.B) {
	for _, mode := range []struct {
		name  string
		short bool
	}{{"long", false}, {"short", true}} {
		b.Run(mode.name, func(b *testing.B) {
			res := runConfig(b, 16, benchN, parbitonic.Config{Algorithm: parbitonic.SmartBitonic, ShortMessages: mode.short})
			b.ReportMetric(res.CommTime()/float64(16*benchN)*1000, "model-comm-ns/key")
		})
	}
}

// BenchmarkTable54_PackBreakdown: pack/transfer/unpack composition of
// the long-message communication (Table 5.4 / Figure 5.6).
func BenchmarkTable54_PackBreakdown(b *testing.B) {
	res := runConfig(b, 16, benchN, parbitonic.Config{Algorithm: parbitonic.SmartBitonic})
	n := float64(16 * benchN)
	b.ReportMetric(res.PackTime/n*1000, "pack-ns/key")
	b.ReportMetric(res.TransferTime/n*1000, "transfer-ns/key")
	b.ReportMetric(res.UnpackTime/n*1000, "unpack-ns/key")
}

// BenchmarkFig57_Compare16 and BenchmarkFig58_Compare32: bitonic vs
// radix vs sample sort (Figures 5.7 and 5.8).
func BenchmarkFig57_Compare16(b *testing.B) { benchCompare(b, 16) }
func BenchmarkFig58_Compare32(b *testing.B) { benchCompare(b, 32) }

func benchCompare(b *testing.B, p int) {
	for _, alg := range []parbitonic.Algorithm{
		parbitonic.SmartBitonic, parbitonic.RadixSort, parbitonic.SampleSort,
	} {
		b.Run(alg.String(), func(b *testing.B) {
			cfg := parbitonic.Config{Algorithm: alg, FusePackUnpack: alg == parbitonic.SmartBitonic}
			runConfig(b, p, benchN, cfg)
		})
	}
}

// runConfigOf is runConfig for any element type: the same uniform key
// stream carried into E's key space, so ns/key is comparable across
// element types (and, for uint32, directly against runConfig — the
// monomorphized u32 path must stay within noise of the pre-generics
// numbers; EXPERIMENTS.md records the comparison).
func runConfigOf[E element.Elem](b *testing.B, p, n int, cfg parbitonic.Config) parbitonic.Result {
	b.Helper()
	cfg.Processors = p
	base := workload.Elems[E](workload.Uniform31, p*n, 1996)
	keys := make([]E, len(base))
	var res parbitonic.Result
	var err error
	b.SetBytes(int64(len(base) * element.Width[E]()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, base)
		res, err = parbitonic.Sort(keys, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.TimePerKey()*1000, "model-ns/key")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(base)), "ns/key")
	return res
}

// BenchmarkElemTypes: the smart bitonic sort across the non-u32
// element types on both backends (the u32 baselines are the Table 5.1
// benchmarks above). Simulated variants report width-scaled model
// time; Native variants report real wall-clock ns/key and allocations,
// which is where a slow generic kernel would show up.
func BenchmarkElemTypes(b *testing.B) {
	const p = 16
	for _, backend := range []parbitonic.Backend{parbitonic.Simulated, parbitonic.Native} {
		name := "simulated"
		if backend == parbitonic.Native {
			name = "native"
		}
		cfg := parbitonic.Config{Algorithm: parbitonic.SmartBitonic, Backend: backend}
		b.Run(name+"/u64", func(b *testing.B) { runConfigOf[uint64](b, p, benchN, cfg) })
		b.Run(name+"/f64", func(b *testing.B) { runConfigOf[float64](b, p, benchN, cfg) })
		b.Run(name+"/kv64", func(b *testing.B) { runConfigOf[parbitonic.KV64](b, p, benchN, cfg) })
	}
}

// BenchmarkAnalysis_Volume: the §3.2.1 analytic volume/remap counters
// (pure computation, no simulation).
func BenchmarkAnalysis_Volume(b *testing.B) {
	var v int
	for i := 0; i < b.N; i++ {
		sched := schedule.New(24, 5, schedule.Head)
		v = schedule.Volume(sched, 1<<19)
	}
	b.ReportMetric(float64(v), "keys/proc")
}

// BenchmarkAnalysis_LogGP: the §3.4 strategy decision procedure.
func BenchmarkAnalysis_LogGP(b *testing.B) {
	var best parbitonic.Prediction
	for i := 0; i < b.N; i++ {
		preds := parbitonic.Predict(24, 5, true, nil)
		best = preds[0]
		for _, p := range preds {
			if p.CommTime < best.CommTime {
				best = p
			}
		}
	}
	b.ReportMetric(best.CommTime, "model-us-comm")
}

// BenchmarkAblation_Shift: Lemma 5 remap-shift strategies (volume per
// strategy as metrics).
func BenchmarkAblation_Shift(b *testing.B) {
	for _, s := range []schedule.Strategy{schedule.Head, schedule.Tail, schedule.Middle1, schedule.Middle2} {
		b.Run(s.String(), func(b *testing.B) {
			var v int
			for i := 0; i < b.N; i++ {
				v = schedule.Volume(schedule.New(20, 4, s), 1<<16)
			}
			b.ReportMetric(float64(v), "keys/proc")
		})
	}
}

// BenchmarkAblation_Compute: Chapter 4's optimized local computation vs
// step-by-step simulation.
func BenchmarkAblation_Compute(b *testing.B) {
	for _, mode := range []struct {
		name string
		sim  bool
	}{{"optimized", false}, {"simulated", true}} {
		b.Run(mode.name, func(b *testing.B) {
			res := runConfig(b, 16, benchN, parbitonic.Config{Algorithm: parbitonic.SmartBitonic, SimulateSteps: mode.sim})
			b.ReportMetric(res.ComputeTime/float64(16*benchN)*1000, "model-compute-ns/key")
		})
	}
}

// BenchmarkExperimentSuite runs the entire scaled experiment suite once
// per iteration — the end-to-end reproduction cost.
func BenchmarkExperimentSuite(b *testing.B) {
	cfg := experiments.Config{Seed: 1996, Scale: 9}
	for i := 0; i < b.N; i++ {
		if tabs := experiments.All(cfg); len(tabs) != 14 {
			b.Fatalf("expected 14 tables, got %d", len(tabs))
		}
	}
}

// BenchmarkNativeSmart1M: native smart sort of 1M uniform 31-bit u32
// keys on one reused engine at P = 1, 2 and 4 — the in-place radix
// path at P=1, the field-routed remaps and merge kernel beyond it.
// Wall-clock numbers; they mean something only with at least P cores.
func BenchmarkNativeSmart1M(b *testing.B) {
	base := workload.Keys(workload.Uniform31, 1<<20, 1996)
	keys := make([]uint32, len(base))
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			e, err := parbitonic.NewEngine(parbitonic.Config{Processors: p, Backend: parbitonic.Native})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			b.SetBytes(int64(len(base) * 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(keys, base)
				if _, err := e.Sort(keys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
