package core

import (
	"fmt"

	"parbitonic/element"

	"parbitonic/internal/bitseq"
	"parbitonic/internal/intbits"
	"parbitonic/internal/localsort"
	"parbitonic/internal/schedule"
	"parbitonic/internal/spmd"
)

// smartSort is Algorithm 1: local sort for the first lg n stages, then
// the smart-remap schedule with either the Chapter 4 optimized
// computation or the compare-exchange simulation between remaps.
//
// The schedule (with its remap plans) is precomputed once by Sort and
// shared read-only by all processors.
func smartSort[E element.Elem](pr *spmd.ProcOf[E], sched []schedule.Remap, opts Options) {
	n := len(pr.Data)
	lgn, lgP := intbits.Log2(n), intbits.Log2(pr.P())
	lgN := lgn + lgP

	// Stages 1..lg n: entirely local under the blocked layout. Their net
	// effect is one sorted run per processor, alternating direction
	// (Lemma 6 at the input of stage lg n + 1). One pooled n-element
	// scratch serves the radix sort and every later local phase, so the
	// whole run allocates nothing in steady state.
	scratch := pr.GetBuf(n)
	localsort.SortScratch(pr.Data, pr.ID%2 == 0, scratch)
	pr.ChargeRadixSort(n)
	if lgP == 0 {
		pr.PutBuf(scratch)
		return
	}

	if opts.Compute == FullSort {
		pr.PutBuf(scratch)
		fullSortRun(pr, sched, lgn, lgP)
		return
	}
	for _, r := range sched {
		if !pr.DirectRemap(r.Plan) {
			pr.RemapExchange(r.Plan, opts.Fused)
		}
		if opts.Compute == Simulated {
			for _, st := range schedule.StepsFrom(lgN, lgP, r.K, r.S, r.StepsAfter) {
				simulateStep(pr, r.Layout, st)
			}
			continue
		}
		scratch = smartPhase(pr, r, lgn, lgP, scratch)
	}
	pr.PutBuf(scratch)
}

// fullScratch is a processor's persistent FullSort working state,
// parked on pr.Scratch between runs: the run table and the merge tile.
type fullScratch[E element.Elem] struct {
	runs []localsort.RunOf[E]
	tile []E
}

// dirAfterRemap gives the direction processor q's keys are sorted in
// once remap i's local phase completed: the merge direction of the
// stage the phase ends in, which is processor-determined.
func dirAfterRemap(sched []schedule.Remap, lgn, i, q int) bool {
	r := sched[i]
	switch r.Kind {
	case schedule.Inside:
		return ascFor(r.Layout, q, lgn+r.K)
	case schedule.Crossing:
		return ascFor(r.Layout, q, lgn+r.K+1)
	default: // last: the final stage is ascending everywhere
		return true
	}
}

// recycleRuns hands a round's consumed message buffers back to the
// processor's free list; the next round's pack reuses them, so
// steady-state FullSort allocates nothing per remap.
func recycleRuns[E element.Elem](pr *spmd.ProcOf[E], in [][]E) {
	for _, msg := range in {
		if len(msg) > 0 {
			pr.PutBuf(msg)
		}
	}
}

// fullSortRun is the FullSort (fully fused) execution: in the usual
// regime the schedule is [inside, crossing..., last] and after every
// remap each processor's keys are a permutation of the canonical
// network state at the granularity the next remap routes at, so the
// entire local phase is one merge of the incoming runs:
//
//   - every incoming long message is a sorted run (the sender was fully
//     sorted and the pack mask preserves local order within a message);
//   - merging all runs in the processor's merge-region direction yields
//     the canonical per-processor multiset fully sorted, which is what
//     the next remap needs (§4.1, Figures 4.3-4.5);
//   - packing for the next remap is the merge's emission pass, so no
//     separate pack or unpack pass exists (§4.3, Figure 4.8).
func fullSortRun[E element.Elem](pr *spmd.ProcOf[E], sched []schedule.Remap, lgn, lgP int) {
	// The first exchange packs the initial radix-sorted keys;
	// afterwards every phase is ONE pass: a p-way merge of the received
	// runs whose emission writes straight into the next remap's message
	// buffers (merge = unpack + sort + pack in a single local
	// computation step, the thesis's first Chapter 7 refinement). Every
	// plan has a destination field (Compile checked), so the merge
	// routes by shifts and masks. Only the final phase materializes a
	// local array. The run table and merge tile persist on the
	// processor across rounds AND runs.
	n := len(pr.Data)
	s, _ := pr.Scratch.(*fullScratch[E])
	if s == nil {
		s = &fullScratch[E]{
			runs: make([]localsort.RunOf[E], 0, pr.P()),
			tile: make([]E, localsort.MergeTileLen[E]()),
		}
		pr.Scratch = s
	}
	in := pr.RemapExchangeRuns(sched[0].Plan, true)
	for i, r := range sched {
		// The usual-regime shape Validate guaranteed: an inside remap,
		// then crossings, then the last remap.
		switch {
		case i == 0 && r.Kind != schedule.Inside,
			i > 0 && i < len(sched)-1 && r.Kind != schedule.Crossing,
			i == len(sched)-1 && i > 0 && r.Kind != schedule.Last:
			panic("core: unexpected schedule shape for FullSort")
		}
		runs := s.runs[:0]
		total := 0
		for src, msg := range in {
			if len(msg) == 0 {
				continue
			}
			srcAsc := src%2 == 0 // after the initial local sorts
			if i > 0 {
				srcAsc = dirAfterRemap(sched, lgn, i-1, src)
			}
			runs = append(runs, localsort.RunOf[E]{Keys: msg, Desc: !srcAsc})
			total += len(msg)
		}
		s.runs = runs
		if total != n {
			panic("core: FullSort lost keys across a remap")
		}

		if i == len(sched)-1 {
			// Final phase: the last remap's steps sort ascending; the
			// merge materializes the finished local array.
			merged := pr.GetBuf(total)
			localsort.MergeRuns(merged, runs)
			pr.Data = merged
			pr.ChargeMerge(total)
			recycleRuns(pr, in)
			return
		}

		next := sched[i+1].Plan
		lo, _ := next.DestField()
		out, groups := pr.PackBuffers(next)
		desc := !dirAfterRemap(sched, lgn, i, pr.ID)
		localsort.MergeRunsField(groups, lo, runs, desc, s.tile)
		pr.ChargeMerge(total)
		recycleRuns(pr, in)
		in = pr.RemapExchangePrepacked(next, out)
		pr.ClearPackBuffers()
	}
}

// smartPhase runs the optimized local computation for the lg n (or, for
// the last remap, S) steps following remap r, per Theorems 2 and 3.
// scratch is an n-element pooled buffer owned by the caller; the
// returned slice replaces it (the inside phase ping-pongs it with the
// local array).
func smartPhase[E element.Elem](pr *spmd.ProcOf[E], r schedule.Remap, lgn, lgP int, scratch []E) []E {
	n := len(pr.Data)
	switch r.Kind {
	case schedule.Inside:
		// Theorem 2: the local keys form one bitonic sequence; the lg n
		// steps sort it in the direction of stage lgn+K, which is
		// processor-determined for an inside remap. The sort emits into
		// the scratch buffer, which then becomes the local array and the
		// old array the scratch — a ping-pong, no allocation.
		asc := ascFor(r.Layout, pr.ID, lgn+r.K)
		bitseq.SortBitonic(scratch[:n], pr.Data, asc)
		pr.Data, scratch = scratch[:n], pr.Data
		pr.ChargeMerge(n)

	case schedule.Crossing:
		// Theorem 3, phase one: 2^B contiguous blocks of 2^A keys, each
		// bitonic, sorted by the A steps that finish stage lgn+K. The
		// direction bit (absolute bit lgn+K) is the top local bit, i.e.
		// the top bit of the block index.
		blockLen := 1 << uint(r.A)
		topMask := 1 << uint(r.B-1)
		localsort.SortBitonicBlocks(pr.Data, blockLen, func(blk int) bool {
			return blk&topMask == 0
		}, scratch)
		pr.ChargeMerge(n)

		// Theorem 3, phase two: reinterpreting the local address with
		// its low A and high B bit fields interchanged, 2^A interleaved
		// sequences of 2^B keys, each bitonic, sorted by the B steps
		// that open stage lgn+K+1. That stage's direction bit is the
		// lowest bit of the A field — processor-determined. The batch
		// kernel sweeps the columns in cache-sized groups.
		asc := ascFor(r.Layout, pr.ID, lgn+r.K+1)
		localsort.SortBitonicStridedBatch(pr.Data, blockLen, 1<<uint(r.B), asc, scratch)
		pr.ChargeMerge(n)

	case schedule.Last:
		// Blocked layout again; S steps of the final stage remain. They
		// sort each contiguous run of 2^S keys (bitonic by Lemma 7)
		// ascending — the final stage is ascending everywhere.
		if r.StepsAfter != r.S {
			panic(fmt.Sprintf("core: last remap executes %d steps, expected %d", r.StepsAfter, r.S))
		}
		localsort.SortBitonicBlocks(pr.Data, 1<<uint(r.S), func(int) bool { return true }, scratch)
		pr.ChargeMerge(n)
	}
	return scratch
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
