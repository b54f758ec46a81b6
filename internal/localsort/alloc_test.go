// The race runtime instruments with allocations of its own, so the
// allocator-accounting assertions only mean something unraced.
//go:build !race

package localsort_test

import (
	"testing"

	"parbitonic/element"
	"parbitonic/internal/bitseq"
	"parbitonic/internal/localsort"
	"parbitonic/internal/workload"
	"parbitonic/internal/workpool"
)

// The kernels promise zero steady-state allocations when the caller
// supplies scratch: count tables are pooled or stack-resident, runs
// tables live on the stack, and the ping-pong layouts end in place.
// These tests pin that promise with the allocator's own accounting.
// The sequential paths are what they cover — a size-1 pool is forced
// so the tests mean the same thing on any host; the parallel tile
// paths draw per-tile scratch by design and are exercised for
// correctness in TestKernelsParallelPoolMatchSequential.

const allocN = 1 << 16 // past radixLargeMin, so KV64 takes its 16-bit digits

// hybridN is past both key-width hybrid thresholds (hybridMin32,
// hybridMin64), so the key-only radix takes its MSD+LSD hybrid layout.
const hybridN = 1 << 19

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm the buffer pools before measuring
	if avg := testing.AllocsPerRun(10, f); avg != 0 {
		t.Errorf("%s: %.1f allocs/op in steady state, want 0", name, avg)
	}
}

func runKernelAllocs[E element.Elem](t *testing.T) {
	keys := workload.Elems[E](workload.FullRange, allocN, 42)
	scratch := make([]E, allocN)

	assertZeroAllocs(t, "RadixSortScratch", func() {
		localsort.RadixSortScratch(keys, scratch)
	})
	big := workload.Elems[E](workload.FullRange, hybridN, 43)
	bigScratch := make([]E, hybridN)
	assertZeroAllocs(t, "RadixSortScratch/hybrid", func() {
		localsort.RadixSortScratch(big, bigScratch)
	})
	assertZeroAllocs(t, "SortScratch", func() {
		localsort.SortScratch(keys, false, scratch)
	})

	a := workload.Elems[E](workload.Sorted, allocN/2, 1)
	b := workload.Elems[E](workload.Sorted, allocN/2, 2)
	dst := make([]E, allocN)
	assertZeroAllocs(t, "MergeTwo", func() {
		localsort.MergeTwo(dst, a, b, true)
	})

	// The merge kernel: two runs and a loser tree, into one array and
	// by a field route through the caller's tile (lo = 0) or straight
	// into the message buffers (lo = 8).
	q := allocN / 4
	two := []localsort.RunOf[E]{{Keys: a}, {Keys: b}}
	four := []localsort.RunOf[E]{{Keys: a[:q]}, {Keys: a[q:]}, {Keys: b[:q]}, {Keys: b[q:]}}
	groups := [][]E{dst[:allocN/2], dst[allocN/2:]}
	tile := make([]E, localsort.MergeTileLen[E]())
	assertZeroAllocs(t, "MergeRuns/2", func() {
		localsort.MergeRuns(dst, two)
	})
	assertZeroAllocs(t, "MergeRuns/4", func() {
		localsort.MergeRuns(dst, four)
	})
	assertZeroAllocs(t, "MergeRunsField/tile", func() {
		localsort.MergeRunsField(groups, 0, four, true, tile)
	})
	assertZeroAllocs(t, "MergeRunsField/direct", func() {
		localsort.MergeRunsField(groups, 8, two, false, nil)
	})

	// Hoisted: a func literal inside a measured closure of a generic
	// function allocates its dictionary capture per run.
	dir := func(b int) bool { return b%2 == 0 }
	assertZeroAllocs(t, "SortBitonicBlocks", func() {
		localsort.SortBitonicBlocks(keys, 1024, dir, scratch)
	})
	assertZeroAllocs(t, "SortBitonicStridedBatch", func() {
		localsort.SortBitonicStridedBatch(keys, 256, allocN/256, true, scratch)
	})

	localsort.Sort(keys, true) // bitonic input for the bitseq kernels
	localsort.Reverse(keys[allocN/2:])
	assertZeroAllocs(t, "bitseq.Split", func() {
		bitseq.Split(keys)
	})
	assertZeroAllocs(t, "bitseq.Merge", func() {
		bitseq.Merge(keys, true)
	})
	tmp := make([]E, allocN)
	assertZeroAllocs(t, "bitseq.SortBitonic", func() {
		bitseq.SortBitonic(tmp, keys, true)
	})
}

// TestKernelAllocs asserts every localsort kernel runs allocation-free
// in steady state for all five element types.
func TestKernelAllocs(t *testing.T) {
	seq := workpool.New(1)
	defer seq.Close()
	localsort.SetPool(seq)
	defer localsort.SetPool(nil)

	t.Run("u32", runKernelAllocs[uint32])
	t.Run("u64", runKernelAllocs[uint64])
	t.Run("f32", runKernelAllocs[float32])
	t.Run("f64", runKernelAllocs[float64])
	t.Run("kv64", runKernelAllocs[element.KV64])
}

// TestKernelsParallelPoolMatchSequential runs the tiled kernel paths
// under a multi-lane pool — regardless of host core count — and checks
// they produce exactly what the sequential paths produce. Run with
// -race, this also exercises the tile hand-off.
func TestKernelsParallelPoolMatchSequential(t *testing.T) {
	par := workpool.New(4)
	defer par.Close()

	check := func(name string, got, want []uint32) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: diverges from sequential at %d: got %d, want %d", name, i, got[i], want[i])
			}
		}
	}

	one := workpool.New(1)
	defer one.Close()
	defer localsort.SetPool(nil)

	n := 1 << 18 // the u32 hybrid radix threshold, so its tiles run
	in := workload.Elems[uint32](workload.FullRange, n, 7)
	scratch := make([]uint32, n)

	seq := append([]uint32(nil), in...)
	localsort.SetPool(one)
	localsort.RadixSortScratch(seq, scratch)
	got := append([]uint32(nil), in...)
	localsort.SetPool(par)
	localsort.RadixSortScratch(got, scratch)
	check("RadixSortScratch", got, seq)

	dir := func(b int) bool { return b%3 != 0 }
	seq = append([]uint32(nil), in...)
	localsort.SetPool(one)
	localsort.SortBitonicBlocks(seq, 2048, dir, scratch)
	got = append([]uint32(nil), in...)
	localsort.SetPool(par)
	localsort.SortBitonicBlocks(got, 2048, dir, scratch)
	check("SortBitonicBlocks", got, seq)

	seq = append([]uint32(nil), in...)
	localsort.SetPool(one)
	localsort.SortBitonicStridedBatch(seq, 512, n/512, false, scratch)
	got = append([]uint32(nil), in...)
	localsort.SetPool(par)
	localsort.SortBitonicStridedBatch(got, 512, n/512, false, scratch)
	check("SortBitonicStridedBatch", got, seq)
}
