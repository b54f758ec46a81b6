package serve

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"parbitonic"
)

// benchKeys builds the request corpus once: many independent 1k-key
// requests, keys small enough to batch.
func benchKeys(n, size int) [][]uint32 {
	rng := rand.New(rand.NewSource(42))
	out := make([][]uint32, n)
	for i := range out {
		out[i] = randKeys(rng, size, 1<<24)
	}
	return out
}

// BenchmarkServeBatched is the throughput story of the serve layer:
// 1k-key requests from 128 concurrent clients through the batching
// server (pooled engines; requests that queue behind busy executors
// share one padded run) — compare with
// BenchmarkServePerRequestEngine below, which builds an engine per
// request the way naive service code would.
func BenchmarkServeBatched(b *testing.B) {
	s, err := New(Config{
		Engine:   parbitonic.Config{Processors: 4, Backend: parbitonic.Native},
		MaxBatch: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	corpus := benchKeys(256, 1024)
	b.SetParallelism(max(1, 128/runtime.GOMAXPROCS(0)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := s.Sort(context.Background(), corpus[i%len(corpus)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkServePerRequestEngine is the baseline the batching server
// is measured against: every request pays engine construction and a
// full solo run.
func BenchmarkServePerRequestEngine(b *testing.B) {
	cfg := parbitonic.Config{Processors: 4, Backend: parbitonic.Native}
	corpus := benchKeys(256, 1024)
	b.SetParallelism(max(1, 128/runtime.GOMAXPROCS(0)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			e, err := parbitonic.NewEngine(cfg)
			if err != nil {
				b.Error(err)
				return
			}
			keys := append([]uint32(nil), corpus[i%len(corpus)]...)
			if _, err := e.SortPadded(keys); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}
