package localsort_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"parbitonic/element"
	"parbitonic/internal/addr"
	"parbitonic/internal/localsort"
)

// randElems draws n elements; dup narrows the keys to a handful of
// values so runs share keys. KV64 payloads are unique, so the exact
// placement of equal-key records is observable.
func randElems[E element.Elem](rng *rand.Rand, n int, dup bool) []E {
	out := make([]E, n)
	for i := range out {
		k := rng.Uint64()
		if dup {
			k = uint64(rng.Intn(6))
		}
		switch p := any(&out[i]).(type) {
		case *uint32:
			*p = uint32(k)
		case *uint64:
			*p = k
		case *float32:
			*p = float32(int64(k>>40) - 1<<23)
			if dup {
				*p = float32(signedKey(rng, k))
			}
		case *float64:
			*p = float64(int64(k>>11) - 1<<52)
			if dup {
				*p = signedKey(rng, k)
			}
		case *element.KV64:
			*p = element.KV64{K: k, V: rng.Uint64()}
		}
	}
	return out
}

// signedKey maps a small key to -2..3, with a zero of random sign:
// -0 and +0 compare equal, so only a merge that places ties exactly
// keeps their order.
func signedKey(rng *rand.Rand, k uint64) float64 {
	if k == 2 && rng.Intn(2) == 0 {
		return math.Copysign(0, -1)
	}
	return float64(k) - 2
}

func keyOf[E element.Elem](e E) float64 {
	switch v := any(e).(type) {
	case uint32:
		return float64(v)
	case uint64:
		return float64(v)
	case float32:
		return float64(v)
	case float64:
		return v
	case element.KV64:
		return float64(v.K)
	}
	panic("unreachable")
}

func cmpKey[E element.Elem](a, b E) int {
	if x, ok := any(a).(element.KV64); ok {
		return cmp.Compare(x.K, any(b).(element.KV64).K)
	}
	return cmp.Compare(keyOf(a), keyOf(b))
}

// mergeCase builds k sorted runs over total keys, cut at random points
// (so runs are unequal and some empty), each stored ascending or
// descending per dirs.
func mergeCase[E element.Elem](rng *rand.Rand, k, total int, dirs string, dup bool) []localsort.RunOf[E] {
	cuts := make([]int, k+1)
	cuts[k] = total
	for i := 1; i < k; i++ {
		cuts[i] = rng.Intn(total + 1)
	}
	slices.Sort(cuts)
	all := randElems[E](rng, total, dup)
	runs := make([]localsort.RunOf[E], k)
	for i := range runs {
		keys := all[cuts[i]:cuts[i+1]]
		slices.SortStableFunc(keys, cmpKey[E])
		desc := dirs == "desc" || dirs == "alt" && i%2 == 1 || dirs == "rand" && rng.Intn(2) == 1
		if desc {
			slices.Reverse(keys)
		}
		runs[i] = localsort.RunOf[E]{Keys: keys, Desc: desc}
	}
	return runs
}

// wantStream is the merge's contract: the ascending stream is the
// stable sort of the runs read in order, each from its smallest key;
// the max-first stream is its exact reverse.
func wantStream[E element.Elem](runs []localsort.RunOf[E], desc bool) []E {
	var all []E
	for _, r := range runs {
		keys := slices.Clone(r.Keys)
		if r.Desc {
			slices.Reverse(keys)
		}
		all = append(all, keys...)
	}
	slices.SortStableFunc(all, cmpKey[E])
	if desc {
		slices.Reverse(all)
	}
	return all
}

// identical reports whether a and b hold the same elements bit for
// bit, so a -0 where the contract puts +0 counts as a difference.
func identical[E element.Elem](a, b []E) bool {
	return slices.Equal(a, b) && slices.EqualFunc(a, b, func(x, y E) bool {
		return element.Bits(x) == element.Bits(y)
	})
}

// checkSorted compares got with the standard library's sort of the
// same keys (and, for records, the (key, payload) multiset).
func checkSorted[E element.Elem](t *testing.T, name string, got []E, runs []localsort.RunOf[E], desc bool) {
	t.Helper()
	var keys []E
	for _, r := range runs {
		keys = append(keys, r.Keys...)
	}
	if kv, ok := any(keys).([]element.KV64); ok {
		g := slices.Clone(any(got).([]element.KV64))
		cmpRec := func(a, b element.KV64) int {
			return cmp.Or(cmp.Compare(a.K, b.K), cmp.Compare(a.V, b.V))
		}
		slices.SortFunc(kv, cmpRec)
		slices.SortFunc(g, cmpRec)
		if !slices.Equal(g, kv) {
			t.Fatalf("%s: (key, payload) multiset differs", name)
		}
		slices.SortFunc(keys, cmpKey[E])
	} else {
		slices.SortFunc(keys, cmpKey[E])
	}
	if desc {
		slices.Reverse(keys)
	}
	for i := range keys {
		if cmpKey(got[i], keys[i]) != 0 {
			t.Fatalf("%s: key %d is %v, slices.Sort has %v", name, i, got[i], keys[i])
		}
	}
}

func testMergeKernel[E element.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tile := make([]E, localsort.MergeTileLen[E]())
	for _, k := range []int{1, 2, 3, 4, 8, 16} {
		for _, dirs := range []string{"asc", "desc", "alt", "rand"} {
			for _, desc := range []bool{false, true} {
				for _, dup := range []bool{false, true} {
					// Plain merge into one array.
					total := rng.Intn(300)
					runs := mergeCase[E](rng, k, total, dirs, dup)
					name := fmt.Sprintf("k=%d runs=%s desc=%v dup=%v total=%d", k, dirs, desc, dup, total)
					got := make([]E, total)
					if desc {
						localsort.MergeRunsField([][]E{got}, 0, runs, true, nil)
					} else {
						localsort.MergeRuns(got, runs)
					}
					checkSorted(t, name, got, runs, desc)
					if want := wantStream(runs, desc); !identical(got, want) {
						t.Fatalf("%s: ties placed differently from the stable order", name)
					}

					// Field merges: short segments go through the tile,
					// long ones straight into the buffers.
					for _, f := range [][2]int{{1, 0}, {2, 0}, {4, 0}, {2, 1}, {4, 3}, {2, 6}, {8, 7}} {
						g, lo := f[0], f[1]
						total := g << uint(lo) * (1 + rng.Intn(3))
						if lo == 0 && rng.Intn(2) == 0 {
							total = g * (len(tile) + rng.Intn(len(tile))) // several tiles
						}
						runs := mergeCase[E](rng, k, total, dirs, dup)
						groups := make([][]E, g)
						for i := range groups {
							groups[i] = make([]E, total/g)
						}
						tl := tile
						if rng.Intn(2) == 0 {
							tl = nil
						}
						localsort.MergeRunsField(groups, lo, runs, desc, tl)
						c := 0
						for 1<<uint(c) < g {
							c++
						}
						stream := make([]E, total)
						for t := range stream {
							stream[t] = groups[t>>uint(lo)&(g-1)][addr.FieldOffset(t, lo, c)]
						}
						fname := fmt.Sprintf("%s field g=%d lo=%d total=%d", name, g, lo, total)
						checkSorted(t, fname, stream, runs, desc)
						if want := wantStream(runs, desc); !identical(stream, want) {
							t.Fatalf("%s: ties placed differently from the stable order", fname)
						}
					}
				}
			}
		}
	}
}

// TestMergeKernel checks the merge kernel for every element type,
// every mix of run directions against both output directions, k in
// {1, 2, 3, 4, 8, 16}, empty and unequal runs and duplicate keys, both
// into one array and through field routes on either side of the tile
// threshold.
func TestMergeKernel(t *testing.T) {
	t.Run("u32", testMergeKernel[uint32])
	t.Run("u64", testMergeKernel[uint64])
	t.Run("f32", testMergeKernel[float32])
	t.Run("f64", testMergeKernel[float64])
	t.Run("kv64", testMergeKernel[element.KV64])
}

// TestMergeKernelManyRuns covers merges past the stack-table bound.
func TestMergeKernelManyRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, k := range []int{17, 40} {
		for _, desc := range []bool{false, true} {
			runs := mergeCase[element.KV64](rng, k, 2000, "rand", true)
			got := make([]element.KV64, 2000)
			localsort.MergeRunsField([][]element.KV64{got}, 0, runs, desc, nil)
			if !identical(got, wantStream(runs, desc)) {
				t.Fatalf("k=%d desc=%v: merge differs from the stable order", k, desc)
			}
		}
	}
}

func TestMergeRunsFieldPanicsOnBadShape(t *testing.T) {
	runs := []localsort.Run{{Keys: []uint32{1, 2, 3, 4}}}
	for name, groups := range map[string][][]uint32{
		"three groups": {make([]uint32, 1), make([]uint32, 1), make([]uint32, 2)},
		"short group":  {make([]uint32, 1), make([]uint32, 1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			localsort.MergeRunsField(groups, 0, runs, false, nil)
		}()
	}
}
