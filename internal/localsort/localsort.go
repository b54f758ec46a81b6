// Package localsort provides the fast local computation routines of
// Chapter 4: LSD radix sort (the paper's choice for the first lg n
// stages, §4.4), linear two-way and p-way merges (§4.3's unpack fusion),
// and block/strided bitonic-merge sorting built on bitseq.SortBitonic
// (Theorems 2 and 3). All routines are O(n) or O(n · passes) and avoid
// comparisons beyond what the input format requires, which is exactly
// why the paper replaces the compare-exchange simulation with them.
//
// Every routine is generic over the element layer and dispatches once
// per call to a monomorphic kernel: integer keys radix-sort directly,
// float keys radix-sort their order images (a bijective bit transform,
// so the passes stay pure integer loops), and KV64 records move whole
// 16-byte elements keyed by K. The uint32 instantiation compiles to
// exactly the pre-generic loops.
package localsort

import (
	"sync"
	"sync/atomic"

	"parbitonic/element"
	"parbitonic/internal/bitseq"
	"parbitonic/internal/workpool"
)

// poolOverride lets tests route the parallel kernels through a pool of
// their own sizing; when nil the kernels use the process-wide shared
// pool (helpers = GOMAXPROCS-1, so on a single-core machine every
// kernel below runs its plain sequential path).
var poolOverride atomic.Pointer[workpool.Pool]

// SetPool overrides the worker pool the parallel kernels
// (SortBitonicBlocks, SortBitonicStridedBatch, the large-n radix)
// submit tiles to; nil restores the process-wide shared pool. It is a
// test hook — forcing a multi-lane pool exercises the concurrent tile
// paths on machines whose shared pool has no helpers — and must not be
// called while kernels are running.
func SetPool(p *workpool.Pool) {
	if p == nil {
		poolOverride.Store(nil)
		return
	}
	poolOverride.Store(p)
}

func kernelPool() *workpool.Pool {
	if p := poolOverride.Load(); p != nil {
		return p
	}
	return workpool.Shared()
}

// Digit widths of the adaptive radix layout. Small inputs use 8-bit
// LSD digits: the count tables live on the stack and the pass count
// per 32 bits is even, so the last permute lands back in the caller's
// array with no copy-back. Large key-only inputs switch to the hybrid
// layout — one MSD partition by the top 11 bits (the paper's digit
// width) into 2048 regions, each finished by an 11-bit LSD radix whose
// working set is cache-resident (see radixUintHybrid). Large KV64
// record inputs keep a flat LSD with 16-bit digits: fewer whole-record
// permute passes beat partition locality at 16 bytes per element.
const (
	radixSmallBits = 8
	radixSmallSize = 1 << radixSmallBits
	radixLargeBits = 16
	radixLargeSize = 1 << radixLargeBits

	// hybridTopBits is the MSD partition width of the large-n hybrid;
	// hybridMaxLowPasses bounds its per-region LSD pass count
	// (ceil((64-11)/11) for uint64 keys).
	hybridTopBits      = 11
	hybridTopSize      = 1 << hybridTopBits
	hybridMaxLowPasses = 5

	// radixLargeMin is the record count from which radixKV's 16-bit
	// digits pay for their table zeroing and prefix sums.
	radixLargeMin = 1 << 16

	// hybridMin32 and hybridMin64 are the key counts from which the
	// hybrid beats the flat 8-bit LSD on one pool lane, for 32- and
	// 64-bit keys. The hybrid clears its digit tables once per occupied
	// region (3K entries for 32-bit keys, 10K for 64-bit), so with keys
	// spread over all 2048 regions that fixed cost outweighs the flat
	// layout's extra full-array sweeps on small inputs. Measured on a
	// 2-vCPU Xeon VM with full-width random keys (EXPERIMENTS.md,
	// kernel throughput): u32 crosses between 192K and 256K keys, u64
	// between 512K and 1M. Narrow u64 keys occupy few regions and
	// favour the hybrid from about 256K, so the u64 switch sits at
	// 512K, where neither kind loses much.
	hybridMin32 = 1 << 18
	hybridMin64 = 1 << 19
)

// RadixPasses is the number of counting passes the §3.4/§4.4 cost
// model charges per 32 bits of key — the paper's 11-bit/3-pass layout.
// The implementation adapts its real digit width to n (see RadixSort)
// but the model constant is part of the calibrated cost semantics, so
// it stays fixed; internal/tune owns translating measured wall time
// into per-model-pass costs.
const RadixPasses = 3

// RadixPassesOf returns the number of model counting passes charged
// for element type E: RadixPasses per 32 bits of key width (3 for
// uint32/float32, 6 for uint64/float64/KV64).
func RadixPassesOf[E element.Elem]() int {
	return RadixPasses * element.KeyBits[E]() / 32
}

// countPool recycles the large-layout count tables across radix sorts:
// the KV64 16-bit LSD wants up to 4 passes × 64Ki uint32 entries, and
// the key hybrid borrows a small prefix for its partition and region
// tables.
var countPool = sync.Pool{
	New: func() any {
		b := make([]uint32, 4*radixLargeSize)
		return &b
	},
}

// RadixSort sorts keys in place, ascending, with least-significant-
// digit radix sort. Floats sort via their order image, so NaNs order
// after +Inf and -0 before +0; KV64 records sort by K, stably (every
// pass layout is a stable LSD permutation, so records with equal keys
// keep their input order). Allocates a transient n-element scratch;
// hot paths pass their own via RadixSortScratch.
func RadixSort[E element.Elem](keys []E) {
	RadixSortScratch(keys, nil)
}

// RadixSortScratch is RadixSort with a caller-owned ping-pong buffer:
// scratch must hold at least len(keys) elements (nil allocates one).
// With scratch supplied the sort performs zero allocations in steady
// state — count tables are pooled or stack-resident, and every pass
// layout uses an even pass count so the result ends in keys without a
// copy-back.
func RadixSortScratch[E element.Elem](keys, scratch []E) {
	if len(keys) < 2 {
		return
	}
	if len(scratch) < len(keys) {
		scratch = make([]E, len(keys))
	} else {
		scratch = scratch[:len(keys)]
	}
	switch any(*new(E)).(type) {
	case uint32:
		radixUint(element.Cast[uint32](keys), element.Cast[uint32](scratch), 32)
	case uint64:
		radixUint(element.Cast[uint64](keys), element.Cast[uint64](scratch), 64)
	case float32:
		s := element.Cast[float32](keys)
		u := element.Cast[uint32](keys)
		for i, f := range s {
			u[i] = uint32(element.Bits(f))
		}
		radixUint(u, element.Cast[uint32](scratch), 32)
		for i, x := range u {
			s[i] = element.FromBits[float32](uint64(x), 0)
		}
	case float64:
		s := element.Cast[float64](keys)
		u := element.Cast[uint64](keys)
		for i, f := range s {
			u[i] = element.Bits(f)
		}
		radixUint(u, element.Cast[uint64](scratch), 64)
		for i, x := range u {
			s[i] = element.FromBits[float64](x, 0)
		}
	default:
		radixKV(element.Cast[element.KV64](keys), element.Cast[element.KV64](scratch))
	}
}

// uintKey are the unsigned widths radix passes run over; every element
// kind reduces to one of them (floats via the order-image transform).
type uintKey interface {
	uint32 | uint64
}

// radixUint sorts keys using scratch as the ping-pong buffer. Small
// inputs run a flat LSD with 8-bit digits and stack tables; large
// inputs (hybridMin32/hybridMin64 keys and up) take the cache-blocked
// MSD+LSD hybrid. Both are stable, so the choice is invisible in the
// output.
func radixUint[T uintKey](keys, scratch []T, keyBits int) {
	hybridMin := hybridMin32
	if keyBits == 64 {
		hybridMin = hybridMin64
	}
	if len(keys) >= hybridMin {
		radixUintHybrid(keys, scratch, keyBits)
		return
	}
	var count [(64 / radixSmallBits) * radixSmallSize]uint32
	radixUintPasses(keys, scratch, keyBits/radixSmallBits, radixSmallBits, count[:])
}

// radixUintHybrid sorts large key arrays with one MSD partition pass
// followed by cache-resident LSD finishing. The top hybridTopBits bits
// scatter every key into its final 2048-aligned region — a few hundred
// elements each on uniform inputs — and each region is then finished
// independently by an LSD radix over the remaining low bits whose
// working set (region, bounce space, count tables) stays in cache.
// DRAM sees three sequential sweeps (histogram, partition read,
// partition write) plus one read+write of cache-warm regions, versus
// the 2·passes+3 full-array sweeps of the flat layout whose every
// permute round-trips memory. The parity of the low-pass count picks
// the partition direction up front so the result lands in keys with no
// final copy: an even count first mirrors keys into scratch (fused
// into the histogram read) and partitions back into keys; an odd count
// partitions into scratch and lets the finishing passes carry the keys
// home. Region scatter is stable and the per-region LSD is stable, so
// the whole is a stable sort like the flat layout it replaces.
func radixUintHybrid[T uintKey](keys, scratch []T, keyBits int) {
	topShift := uint(keyBits - hybridTopBits)
	lowBits := keyBits - hybridTopBits
	passes := (lowBits + hybridTopBits - 1) / hybridTopBits
	cp := countPool.Get().(*[]uint32)
	count := (*cp)[:hybridTopSize]
	starts := (*cp)[hybridTopSize : 2*hybridTopSize]
	clear(count)
	var from, into, other []T
	if passes&1 == 0 {
		for i, k := range keys {
			count[int(k>>topShift)]++
			scratch[i] = k
		}
		from, into, other = scratch, keys, scratch
	} else {
		for _, k := range keys {
			count[int(k>>topShift)]++
		}
		from, into, other = keys, scratch, keys
	}
	sum := uint32(0)
	for d := range count {
		c := count[d]
		count[d] = sum
		starts[d] = sum
		sum += c
	}
	for _, k := range from {
		d := int(k >> topShift)
		into[count[d]] = k
		count[d]++
	}
	// Regions are disjoint in keys, scratch and the shared (now
	// read-only) offset tables, so they finish in parallel on whatever
	// helper lanes are idle; each tile draws its own digit tables from
	// the pool. A single-lane pool runs one inline tile — the plain
	// sequential loop.
	wp := kernelPool()
	if wp.Size() == 1 {
		// Sequential: borrow cp's tail for the digit tables and skip
		// the closure, so the whole sort allocates nothing.
		low := (*cp)[2*hybridTopSize : (2+hybridMaxLowPasses)*hybridTopSize]
		hybridFinishRange(keys, into, other, starts, count, lowBits, low, 0, hybridTopSize)
	} else {
		wp.ParallelFor(hybridTopSize, (hybridTopSize+wp.Size()-1)/wp.Size(), func(dlo, dhi int) {
			tp := countPool.Get().(*[]uint32)
			low := (*tp)[:hybridMaxLowPasses*hybridTopSize]
			hybridFinishRange(keys, into, other, starts, count, lowBits, low, dlo, dhi)
			countPool.Put(tp)
		})
	}
	countPool.Put(cp)
}

// hybridFinishRange finishes the hybrid regions [dlo, dhi): each
// region of into is LSD-sorted over its low bits, bouncing through
// other, and lands back in keys.
func hybridFinishRange[T uintKey](keys, into, other []T, starts, count []uint32, lowBits int, low []uint32, dlo, dhi int) {
	for d := dlo; d < dhi; d++ {
		lo, hi := int(starts[d]), int(count[d])
		if hi-lo < 2 {
			if hi == lo+1 {
				keys[lo] = into[lo]
			}
			continue
		}
		res := lsdLow(into[lo:hi], other[lo:hi], lowBits, low)
		if &res[0] != &keys[lo] {
			copy(keys[lo:hi], res)
		}
	}
}

// lsdLow finishes one hybrid region: it sorts seg by its low lowBits
// bits with 11-bit digits (the last pass takes the remainder), bouncing
// between seg and buf, and returns whichever of the two holds the
// result. Identity passes (single occupied bucket) are skipped. The
// two-pass shape every uint32 region takes is unrolled — its fused
// histogram read is the hottest loop of the large-n sort.
func lsdLow[T uintKey](seg, buf []T, lowBits int, count []uint32) []T {
	n := uint32(len(seg))
	if lowBits == 21 { // uint32 keys: one 11-bit and one 10-bit pass
		c0 := count[:1<<11]
		c1 := count[1<<11 : 1<<11+1<<10]
		clear(c0)
		clear(c1)
		for _, k := range seg {
			c0[int(k&0x7ff)]++
			c1[int(k>>11&0x3ff)]++
		}
		src, dst := seg, buf
		if c0[int(src[0]&0x7ff)] != n {
			scatterPass(src, dst, 0, 0x7ff, c0)
			src, dst = dst, src
		}
		if c1[int(src[0]>>11&0x3ff)] != n {
			scatterPass(src, dst, 11, 0x3ff, c1)
			src, dst = dst, src
		}
		return src
	}
	var shifts [hybridMaxLowPasses]uint
	var masks [hybridMaxLowPasses]T
	var offs [hybridMaxLowPasses]int
	passes, off := 0, 0
	for b := 0; b < lowBits; b += hybridTopBits {
		w := min(hybridTopBits, lowBits-b)
		shifts[passes] = uint(b)
		masks[passes] = T(1)<<w - 1
		offs[passes] = off
		off += 1 << w
		passes++
	}
	clear(count[:off])
	for _, k := range seg {
		for p := 0; p < passes; p++ {
			count[offs[p]+int(k>>shifts[p]&masks[p])]++
		}
	}
	src, dst := seg, buf
	for p := 0; p < passes; p++ {
		cnt := count[offs[p] : offs[p]+int(masks[p])+1]
		if cnt[int(src[0]>>shifts[p]&masks[p])] == n {
			continue
		}
		scatterPass(src, dst, shifts[p], masks[p], cnt)
		src, dst = dst, src
	}
	return src
}

// scatterPass turns the digit histogram cnt into running offsets and
// permutes src into dst by the digit at shift/mask — one stable
// counting-sort pass.
func scatterPass[T uintKey](src, dst []T, shift uint, mask T, cnt []uint32) {
	sum := uint32(0)
	for d := range cnt {
		c := cnt[d]
		cnt[d] = sum
		sum += c
	}
	for _, k := range src {
		d := int(k >> shift & mask)
		dst[cnt[d]] = k
		cnt[d]++
	}
}

func radixUintPasses[T uintKey](keys, scratch []T, passes, bits int, count []uint32) {
	n := len(keys)
	size := 1 << bits
	mask := T(size - 1)
	count = count[:passes*size]
	clear(count)
	for _, k := range keys {
		for p, off := 0, 0; p < passes; p, off = p+1, off+size {
			count[off+int(k>>(uint(p*bits))&mask)]++
		}
	}
	src, dst := keys, scratch
	for p := 0; p < passes; p++ {
		shift := uint(p * bits)
		cnt := count[p*size : (p+1)*size]
		if cnt[int(src[0]>>shift&mask)] == uint32(n) {
			continue // all keys share this digit: the pass is the identity
		}
		sum := uint32(0)
		for d := range cnt {
			c := cnt[d]
			cnt[d] = sum
			sum += c
		}
		for _, k := range src {
			d := int(k >> shift & mask)
			dst[cnt[d]] = k
			cnt[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// radixKV is the record form of radixUint: 64-bit key digits, whole
// 16-byte elements moved per pass. Stability of every pass keeps
// equal-key records in input order.
func radixKV(recs, scratch []element.KV64) {
	n := len(recs)
	bits, passes := radixSmallBits, 64/radixSmallBits
	if n >= radixLargeMin {
		bits, passes = radixLargeBits, 64/radixLargeBits
	}
	size := 1 << bits
	mask := uint64(size - 1)
	cp := countPool.Get().(*[]uint32)
	count := (*cp)[:passes*size]
	clear(count)
	for _, r := range recs {
		for p, off := 0, 0; p < passes; p, off = p+1, off+size {
			count[off+int(r.K>>(uint(p*bits))&mask)]++
		}
	}
	src, dst := recs, scratch
	for p := 0; p < passes; p++ {
		shift := uint(p * bits)
		cnt := count[p*size : (p+1)*size]
		if cnt[int(src[0].K>>shift&mask)] == uint32(n) {
			continue
		}
		sum := uint32(0)
		for d := range cnt {
			c := cnt[d]
			cnt[d] = sum
			sum += c
		}
		for _, r := range src {
			d := int(r.K >> shift & mask)
			dst[cnt[d]] = r
			cnt[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &recs[0] {
		copy(recs, src)
	}
	countPool.Put(cp)
}

// Sort sorts keys in place in the direction given by asc, using radix
// sort (a descending sort is an ascending sort followed by a linear
// reversal).
func Sort[E element.Elem](keys []E, asc bool) {
	RadixSort(keys)
	if !asc {
		Reverse(keys)
	}
}

// SortScratch is Sort with a caller-owned radix ping-pong buffer; see
// RadixSortScratch.
func SortScratch[E element.Elem](keys []E, asc bool, scratch []E) {
	RadixSortScratch(keys, scratch)
	if !asc {
		Reverse(keys)
	}
}

// Reverse reverses keys in place.
func Reverse[E element.Elem](keys []E) {
	for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
		keys[i], keys[j] = keys[j], keys[i]
	}
}

// SortBitonicBlocks sorts each contiguous block of blockLen keys, every
// block being a bitonic sequence, in the direction dir(block) returns.
// scratch must be at least blockLen long (it is allocated when nil).
// This is the Theorem 2/3 phase-one primitive. Blocks are independent,
// so on a multi-lane pool they sort on idle helper lanes, each tile
// with its own scratch; a single-lane pool takes the sequential path
// with the caller's scratch and allocates nothing.
func SortBitonicBlocks[E element.Elem](keys []E, blockLen int, dir func(block int) bool, scratch []E) {
	if blockLen <= 0 || len(keys)%blockLen != 0 {
		panic("localsort: SortBitonicBlocks bad block length")
	}
	nb := len(keys) / blockLen
	wp := kernelPool()
	if wp.Size() == 1 || nb == 1 {
		if len(scratch) < blockLen {
			scratch = make([]E, blockLen)
		}
		sortBlockRange(keys, blockLen, dir, scratch, 0, nb)
		return
	}
	wp.ParallelFor(nb, (nb+wp.Size()-1)/wp.Size(), func(lo, hi int) {
		sortBlockRange(keys, blockLen, dir, make([]E, blockLen), lo, hi)
	})
}

func sortBlockRange[E element.Elem](keys []E, blockLen int, dir func(block int) bool, scratch []E, lo, hi int) {
	for b := lo; b < hi; b++ {
		blk := keys[b*blockLen : (b+1)*blockLen]
		bitseq.SortBitonic(scratch[:blockLen], blk, dir(b))
		copy(blk, scratch[:blockLen])
	}
}

// SortBitonicStrided sorts the strided subsequence
// keys[start], keys[start+stride], ... (count elements), which must be
// bitonic, in the direction given by asc. Used for the second phase of
// a crossing remap (Theorem 3), where the blocks to sort are
// interleaved in local memory. scratch needs 2*count capacity.
func SortBitonicStrided[E element.Elem](keys []E, start, stride, count int, asc bool, scratch []E) {
	if len(scratch) < 2*count {
		scratch = make([]E, 2*count)
	}
	in, out := scratch[:count], scratch[count:2*count]
	for i := 0; i < count; i++ {
		in[i] = keys[start+i*stride]
	}
	bitseq.SortBitonic(out, in, asc)
	for i := 0; i < count; i++ {
		keys[start+i*stride] = out[i]
	}
}

// stridedGroupBytes bounds the column-group working set of
// SortBitonicStridedBatch so gathers, sorts and scatters stay
// cache-resident.
const stridedGroupBytes = 32 << 10

// SortBitonicStridedBatch runs the complete phase-two sweep of a
// crossing remap (Theorem 3): it sorts ALL stride interleaved columns
// keys[d], keys[d+stride], ... (count elements each, each bitonic) in
// direction asc. Column-at-a-time sweeps (SortBitonicStrided in a
// loop) stream the entire array once per column because consecutive
// column elements sit stride apart; this version processes columns in
// cache-sized groups — one sequential pass gathers a group into
// contiguous per-column scratch, the sorts run in cache, one
// sequential pass scatters back — so every cache line of keys is
// loaded O(stride/group) times instead of stride times.
//
// scratch wants (group+1)*count elements where group =
// stridedGroupBytes / (count * elem width); pass what you have (nil
// allocates) — an undersized scratch only shrinks the group on the
// sequential path. Column groups touch disjoint key columns, so on a
// multi-lane pool they run on idle helper lanes, each tile with its
// own gather scratch.
func SortBitonicStridedBatch[E element.Elem](keys []E, stride, count int, asc bool, scratch []E) {
	if stride <= 0 || count <= 0 || stride*count != len(keys) {
		panic("localsort: SortBitonicStridedBatch dimension mismatch")
	}
	w := int(element.TypeOf[E]().Width())
	g := stridedGroupBytes / (count * w)
	if g < 1 {
		g = 1
	}
	if g > stride {
		g = stride
	}
	wp := kernelPool()
	if wp.Size() == 1 || stride <= g {
		if len(scratch) >= 2*count && len(scratch) < (g+1)*count {
			g = len(scratch)/count - 1 // work within the caller's scratch
		}
		if len(scratch) < (g+1)*count {
			scratch = make([]E, (g+1)*count)
		}
		stridedGroupRange(keys, stride, count, asc, g, scratch, 0, (stride+g-1)/g)
		return
	}
	ng := (stride + g - 1) / g
	wp.ParallelFor(ng, (ng+wp.Size()-1)/wp.Size(), func(lo, hi int) {
		stridedGroupRange(keys, stride, count, asc, g, make([]E, (g+1)*count), lo, hi)
	})
}

// stridedGroupRange processes column groups [lo,hi): gather the group's
// columns into contiguous scratch, sort each in cache, scatter back.
func stridedGroupRange[E element.Elem](keys []E, stride, count int, asc bool, g int, scratch []E, lo, hi int) {
	cols := scratch[:g*count]
	tmp := scratch[g*count : (g+1)*count]
	for gi := lo; gi < hi; gi++ {
		d0 := gi * g
		gn := min(g, stride-d0)
		for j := 0; j < count; j++ {
			row := keys[j*stride+d0 : j*stride+d0+gn]
			for c, v := range row {
				cols[c*count+j] = v
			}
		}
		for c := 0; c < gn; c++ {
			col := cols[c*count : (c+1)*count]
			bitseq.SortBitonic(tmp, col, asc)
			copy(col, tmp)
		}
		for j := 0; j < count; j++ {
			row := keys[j*stride+d0 : j*stride+d0+gn]
			for c := range row {
				row[c] = cols[c*count+j]
			}
		}
	}
}
