package main

import (
	"context"
	"slices"
	"time"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/addr"
	"parbitonic/internal/intbits"
	"parbitonic/internal/localsort"
	"parbitonic/internal/schedule"
)

// The probes time single calls into the kernel and remap layers, and
// the honest baselines, on copies of a workload's own inputs at its
// own shapes. Only traced runs make them.

// repeat runs body once as an unrecorded warm-up, then records it at
// least three times and for as long as the budget lasts.
func repeat(budget time.Duration, body func(record bool)) {
	body(false)
	end := time.Now().Add(budget)
	for i := 0; i < 3 || (i < 500 && time.Now().Before(end)); i++ {
		body(true)
	}
}

// shares cuts each input's first per-processor share.
func shares[E element.Elem](inputs [][]E, share int) [][]E {
	out := make([][]E, len(inputs))
	for i, in := range inputs {
		out[i] = in[:share]
	}
	return out
}

// probeRadix times the local radix sort on copies of chunks, each the
// keys one processor sorts.
func probeRadix[E element.Elem](tr *tracer, rep *report, chunks [][]E, budget time.Duration) {
	longest := 0
	for _, c := range chunks {
		longest = max(longest, len(c))
	}
	buf := make([]E, longest)
	k := 0
	repeat(budget, func(record bool) {
		b := buf[:copy(buf, chunks[k%len(chunks)])]
		k++
		op, s := tr.op(), tr.begin()
		localsort.RadixSort(b)
		if record {
			tr.end(op, "kernel", "kernel.radix", s, len(b))
		}
	})
	rep.setLayer("localsort.radix_ns_key", nsPerKey(tr.named("kernel.radix")))
}

// probeRemap times what a crossing remap of n keys on p processors
// costs each processor: the p-way merge of p sorted runs of share/p
// keys, and routing over the smart schedule's own remap plans.
func probeRemap(tr *tracer, rep *report, input []uint32, p int, budget time.Duration) {
	n := len(input)
	share := n / p
	runs := make([]localsort.Run, p)
	for i := range runs {
		runs[i].Keys = slices.Clone(input[i*share/p : (i+1)*share/p])
		slices.Sort(runs[i].Keys)
	}
	dst := make([]uint32, share)
	repeat(budget/2, func(record bool) {
		op, s := tr.op(), tr.begin()
		localsort.MergeRuns(dst, runs)
		if record {
			tr.end(op, "kernel", "kernel.merge", s, share)
		}
	})
	rep.setLayer("localsort.merge_ns_key", nsPerKey(tr.named("kernel.merge")))

	var plans []*addr.RemapPlan
	for _, r := range schedule.New(intbits.Log2(n), intbits.Log2(p), schedule.Head) {
		plans = append(plans, r.Plan)
	}
	dest, off := make([]int32, share), make([]int32, share)
	repeat(budget/2, func(record bool) {
		op, s := tr.op(), tr.begin()
		for _, pl := range plans {
			for proc := 0; proc < p; proc++ {
				pl.Route(proc, dest, off)
			}
		}
		if record {
			tr.end(op, "remap", "remap.route", s, len(plans)*p*share)
		}
	})
	rep.setLayer("addr.route_ns_key", nsPerKey(tr.named("remap.route")))
}

// probeRefs times the honest baselines on each whole input: a P=1
// native engine (the in-place radix path, padded when the length needs
// it) and the standard library's sort. Their outputs are checked like
// any other operation's.
func probeRefs[E element.Elem](tr *tracer, rep *report, inputs [][]E, stdSort func([]E), check func(in int, out []E) error, budget time.Duration) {
	longest := 0
	for _, in := range inputs {
		longest = max(longest, len(in))
	}
	buf := make([]E, longest)
	eng, err := parbitonic.NewEngineOf[E](parbitonic.Config{Processors: 1, Backend: parbitonic.Native})
	if err != nil {
		rep.attempted++
		rep.fail("reference engine: %v", err)
		return
	}
	defer eng.Close()
	k := 0
	for _, ref := range []struct {
		name string
		sort func([]E) error
	}{
		{"ref.p1", func(b []E) error {
			_, err := eng.SortPaddedContext(context.Background(), b)
			return err
		}},
		{"ref.stdlib", func(b []E) error { stdSort(b); return nil }},
	} {
		repeat(budget/2, func(record bool) {
			in := k % len(inputs)
			k++
			b := buf[:copy(buf, inputs[in])]
			op, s := tr.op(), tr.begin()
			err := ref.sort(b)
			if record {
				tr.end(op, "ref", ref.name, s, len(b))
			}
			rep.attempted++
			if err == nil {
				err = check(in, b)
			}
			if err != nil {
				rep.fail("%s: %v", ref.name, err)
			}
		})
		rep.setLayer(ref.name+"_ms", median(durMs(tr.named(ref.name))))
	}
}
