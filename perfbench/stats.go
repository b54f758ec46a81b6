package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics. +Inf entries (failed requests) sort last,
// so they count as missing any limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	if math.IsInf(s[i+1], 1) {
		return s[i+1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// settle runs two garbage collections between phases, the second
// reclaiming what the first's finalizers released, so that one
// phase's garbage is not collected on the next phase's clock.
func settle() {
	runtime.GC()
	runtime.GC()
}

const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	heapAllocs  = "/gc/heap/allocs:objects"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocCount returns the process's cumulative heap allocations.
func allocCount() uint64 { return readMetric(heapAllocs) }

// heapSampler records the peak of the heap's object bytes, read from
// runtime/metrics (no stop-the-world) every 2 ms until stop.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peak: readMetric(heapObjects)}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: heapObjects}}
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				metrics.Read(s)
				h.peak = max(h.peak, s[0].Value.Uint64())
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB (2^20 bytes).
func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	h.peak = max(h.peak, readMetric(heapObjects))
	return float64(h.peak) / (1 << 20)
}
