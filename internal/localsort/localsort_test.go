package localsort

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"parbitonic/internal/bitseq"
	"parbitonic/internal/workload"
)

func randomKeys(rng *rand.Rand, n int) []uint32 {
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = rng.Uint32()
	}
	return keys
}

func sortedCopy(keys []uint32) []uint32 {
	out := append([]uint32(nil), keys...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestRadixSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 17, 256, 1000, 1 << 14} {
		keys := randomKeys(rng, n)
		want := sortedCopy(keys)
		RadixSort(keys)
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("n=%d: mismatch at %d", n, i)
			}
		}
	}
}

// TestRadixSortLayoutBoundaries sorts key-only inputs on both sides of
// the flat/hybrid switch of each key width, against slices.Sort.
func TestRadixSortLayoutBoundaries(t *testing.T) {
	for _, n := range []int{hybridMin32 - 1, hybridMin32} {
		keys := workload.Elems[uint32](workload.FullRange, n, uint64(n))
		want := slices.Clone(keys)
		slices.Sort(want)
		RadixSort(keys)
		if !slices.Equal(keys, want) {
			t.Errorf("u32 n=%d: result differs from slices.Sort", n)
		}
	}
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{hybridMin64 - 1, hybridMin64} {
		keys := make([]uint64, n) // full 64-bit keys, spread over every region
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		RadixSort(keys)
		if !slices.Equal(keys, want) {
			t.Errorf("u64 n=%d: result differs from slices.Sort", n)
		}
	}
}

func TestRadixSortExtremeValues(t *testing.T) {
	keys := []uint32{^uint32(0), 0, 1, ^uint32(0) - 1, 0, 1 << 31, (1 << 31) - 1}
	want := sortedCopy(keys)
	RadixSort(keys)
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("mismatch at %d: %v", i, keys)
		}
	}
}

func TestSortDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := randomKeys(rng, 999)
	want := sortedCopy(keys)
	Sort(keys, false)
	for i := range want {
		if keys[len(keys)-1-i] != want[i] {
			t.Fatalf("descending sort wrong at %d", i)
		}
	}
}

func TestQuickRadixSortIsSortingNetworkEquivalent(t *testing.T) {
	f := func(keys []uint32) bool {
		mine := append([]uint32(nil), keys...)
		RadixSort(mine)
		want := sortedCopy(keys)
		for i := range want {
			if mine[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		a := sortedCopy(randomKeys(rng, rng.Intn(50)))
		b := sortedCopy(randomKeys(rng, rng.Intn(50)))
		dst := make([]uint32, len(a)+len(b))
		MergeTwo(dst, a, b, true)
		want := sortedCopy(append(append([]uint32{}, a...), b...))
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("asc merge wrong at %d", i)
			}
		}
		MergeTwo(dst, a, b, false)
		for i := range want {
			if dst[len(dst)-1-i] != want[i] {
				t.Fatalf("desc merge wrong at %d", i)
			}
		}
	}
}

func TestMergeTwoPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	MergeTwo(make([]uint32, 3), make([]uint32, 1), make([]uint32, 1), true)
}

func TestMergeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		p := 1 + rng.Intn(9)
		var runs []Run
		var all []uint32
		for i := 0; i < p; i++ {
			keys := sortedCopy(randomKeys(rng, rng.Intn(40)))
			all = append(all, keys...)
			if rng.Intn(2) == 0 {
				Reverse(keys)
				runs = append(runs, Run{Keys: keys, Desc: true})
			} else {
				runs = append(runs, Run{Keys: keys})
			}
		}
		dst := make([]uint32, len(all))
		MergeRuns(dst, runs)
		want := sortedCopy(all)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("trial %d (p=%d): wrong at %d", trial, p, i)
			}
		}
	}
}

func TestMergeRunsEdgeCases(t *testing.T) {
	MergeRuns[uint32](nil, nil) // empty: no panic
	dst := make([]uint32, 3)
	MergeRuns(dst, []Run{{Keys: []uint32{3, 2, 1}, Desc: true}})
	if dst[0] != 1 || dst[2] != 3 {
		t.Errorf("single descending run: %v", dst)
	}
	// Runs with empty slices mixed in.
	dst = make([]uint32, 2)
	MergeRuns(dst, []Run{{}, {Keys: []uint32{5, 9}}, {}})
	if dst[0] != 5 || dst[1] != 9 {
		t.Errorf("empty-run merge: %v", dst)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	MergeRuns(make([]uint32, 1), []Run{{Keys: []uint32{1, 2}}})
}

func makeBitonicBlock(rng *rand.Rand, n int) []uint32 {
	keys := sortedCopy(randomKeys(rng, n))
	up := 1 + rng.Intn(n)
	blk := make([]uint32, 0, n)
	blk = append(blk, keys[n-up:]...)
	for i := n - up - 1; i >= 0; i-- {
		blk = append(blk, keys[i])
	}
	return bitseq.Rotate(blk, rng.Intn(n))
}

func TestSortBitonicBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		blockLen := 1 << (1 + rng.Intn(6))
		blocks := 1 + rng.Intn(8)
		keys := make([]uint32, 0, blockLen*blocks)
		for b := 0; b < blocks; b++ {
			keys = append(keys, makeBitonicBlock(rng, blockLen)...)
		}
		dirs := make([]bool, blocks)
		for b := range dirs {
			dirs[b] = rng.Intn(2) == 0
		}
		want := make([][]uint32, blocks)
		for b := 0; b < blocks; b++ {
			want[b] = sortedCopy(keys[b*blockLen : (b+1)*blockLen])
		}
		SortBitonicBlocks(keys, blockLen, func(b int) bool { return dirs[b] }, nil)
		for b := 0; b < blocks; b++ {
			for i := 0; i < blockLen; i++ {
				got := keys[b*blockLen+i]
				exp := want[b][i]
				if !dirs[b] {
					exp = want[b][blockLen-1-i]
				}
				if got != exp {
					t.Fatalf("block %d dir %v wrong at %d", b, dirs[b], i)
				}
			}
		}
	}
}

func TestSortBitonicBlocksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on indivisible block length")
		}
	}()
	SortBitonicBlocks(make([]uint32, 10), 3, func(int) bool { return true }, nil)
}

func TestSortBitonicStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		stride := 1 << (1 + rng.Intn(4))
		count := 1 << (1 + rng.Intn(5))
		keys := make([]uint32, stride*count)
		for i := range keys {
			keys[i] = rng.Uint32()
		}
		// Plant a bitonic sequence along each stride lane; sort lane 0
		// ascending and verify only lane values moved.
		for lane := 0; lane < stride; lane++ {
			blk := makeBitonicBlock(rng, count)
			for i := 0; i < count; i++ {
				keys[lane+i*stride] = blk[i]
			}
		}
		before := append([]uint32(nil), keys...)
		lane := rng.Intn(stride)
		SortBitonicStrided(keys, lane, stride, count, true, nil)
		var got, all []uint32
		for i := 0; i < count; i++ {
			got = append(got, keys[lane+i*stride])
			all = append(all, before[lane+i*stride])
		}
		want := sortedCopy(all)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("lane not sorted at %d", i)
			}
		}
		for i := range keys {
			if (i-lane)%stride != 0 && keys[i] != before[i] {
				t.Fatalf("non-lane element %d was modified", i)
			}
		}
	}
}

func BenchmarkRadixSort(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	keys := randomKeys(rng, 1<<16)
	work := make([]uint32, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, keys)
		RadixSort(work)
	}
}

func BenchmarkSortBitonicVsRadix(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	blk := makeBitonicBlock(rng, 1<<16)
	b.Run("bitonic-merge-sort", func(b *testing.B) {
		dst := make([]uint32, len(blk))
		for i := 0; i < b.N; i++ {
			bitseq.SortBitonic(dst, blk, true)
		}
	})
	b.Run("radix-sort", func(b *testing.B) {
		work := make([]uint32, len(blk))
		for i := 0; i < b.N; i++ {
			copy(work, blk)
			RadixSort(work)
		}
	})
}
