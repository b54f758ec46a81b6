package main

import (
	"math"
	"slices"

	"parbitonic"
)

// rng is splitmix64. The benchmark owns its generator so that no
// change to the program under test can change the inputs it is fed:
// the same seed always yields the same keys.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponential variate with the given mean.
func (r *rng) exp(mean float64) float64 { return -mean * math.Log(1-r.float()) }

// u32Keys returns n uniform 31-bit keys, the input of the paper's §5.3
// experiments.
func u32Keys(r *rng, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(r.next() >> 33)
	}
	return out
}

// kvKeyBits leaves the top 16 key bits clear, so the serve layer's
// tag-bit batching (which needs lg(MaxBatch) free high bits) applies.
const kvKeyBits = 48

// kvRecords returns n records with uniform 48-bit keys and random
// payloads.
func kvRecords(r *rng, n int) []parbitonic.KV64 {
	out := make([]parbitonic.KV64, n)
	for i := range out {
		out[i] = parbitonic.KV64{K: r.next() >> (64 - kvKeyBits), V: r.next()}
	}
	return out
}

// logUniformSizes returns count sizes log-uniform on [lo, hi], drawn
// stratified — one draw per equal-probability slice, then shuffled —
// so every seed has the same size mix up to jitter inside each slice
// and the total key count barely moves between seeds.
func logUniformSizes(r *rng, count, lo, hi int) []int {
	out := make([]int, count)
	span := math.Log(float64(hi) / float64(lo))
	for i := range out {
		u := (float64(i) + r.float()) / float64(count)
		out[i] = int(float64(lo) * math.Exp(u*span))
		out[i] = min(max(out[i], lo), hi)
	}
	for i := len(out) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// sortedCopy is the reference output: the standard library's sort of
// a copy, computed outside any timed region.
func sortedCopy(keys []uint32) []uint32 {
	ref := slices.Clone(keys)
	slices.Sort(ref)
	return ref
}
