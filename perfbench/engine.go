package main

import (
	"context"
	"math"
	"slices"
	"time"

	"parbitonic"
)

// engineSpec is a workload of back-to-back SortContext calls by one
// caller on one reused engine.
type engineSpec struct {
	p, n    int // processors and total keys per sort
	backend parbitonic.Backend
	inputs  int       // distinct seeded inputs, cycled through
	setups  int       // cold set-ups per run; their median is setup_s
	model   *simModel // what the simulator must report; nil on native
}

// runStats is the part of parbitonic.Result a span keeps.
type runStats struct {
	TimeUs    float64 `json:"time_us"`
	ComputeUs float64 `json:"compute_us"`
	CommUs    float64 `json:"comm_us"` // pack + transfer + unpack
	Remaps    int     `json:"remaps"`
	Volume    int     `json:"volume"`
	Messages  int     `json:"messages"`
}

func statsOf(r parbitonic.Result) runStats {
	return runStats{r.Time, r.ComputeTime, r.CommTime(), r.Remaps, r.VolumeSent, r.MessagesSent}
}

// minOps keeps every end-to-end figure a statistic over many
// operations even when --seconds is short.
const minOps = 20

// warmups are sorts run before the timed loop and discarded.
const warmups = 3

func runEngine(w engineSpec, o runOpts) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	r := newRNG(o.seed, 1)
	inputs := make([][]uint32, w.inputs)
	refs := make([][]uint32, w.inputs)
	for i := range inputs {
		inputs[i] = u32Keys(r, w.n)
		refs[i] = sortedCopy(inputs[i])
	}
	buf := make([]uint32, w.n)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// verify checks one operation's output, outside its timed region.
	verify := func(in int, res parbitonic.Result, err error) bool {
		rep.attempted++
		if o.tamper != nil {
			o.tamper(buf, &res)
		}
		if err == nil {
			err = checkU32(buf, refs[in])
		}
		if err == nil && w.model != nil {
			err = w.model.check(res)
		}
		if err != nil {
			rep.fail("%v", err)
			return false
		}
		return true
	}

	cfg := parbitonic.Config{Processors: w.p, Backend: w.backend}
	var eng *parbitonic.Engine
	var setupS []float64
	for i := 0; i < w.setups; i++ {
		if eng != nil {
			eng.Close()
		}
		settle()
		in := i % len(inputs)
		copy(buf, inputs[in])
		op := tr.op()
		t0, s0 := time.Now(), tr.begin()
		e, err := parbitonic.NewEngine(cfg)
		tr.end(op, "engine", "setup.new", s0, 0)
		if err != nil {
			return nil, err
		}
		s1 := tr.begin()
		res, err := e.SortContext(ctx, buf)
		setupS = append(setupS, time.Since(t0).Seconds())
		tr.set(tr.end(op, "engine", "setup.first_op", s1, w.n), err != nil, statsOf(res))
		verify(in, res, err)
		eng = e
	}
	defer eng.Close()

	settle()
	for i := 0; i < warmups; i++ {
		copy(buf, inputs[i%len(inputs)])
		res, err := eng.SortContext(ctx, buf)
		verify(i%len(inputs), res, err)
	}

	// The timed loop. A traced run alternates traced and untraced
	// sorts, so the two p50s it compares share every other condition.
	measure := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		measure = measure * 6 / 10 // the rest goes to the layer probes
	}
	// Sized so that appending never allocates inside the loop, which
	// would show in engine.allocs_per_op.
	lat, plain := make([]float64, 0, 1<<16), make([]float64, 0, 1<<16)
	var keys int
	settle()
	heap := startHeapSampler()
	a0 := allocCount()
	deadline := time.Now().Add(measure)
	ops := 0
	for ; ops < minOps || time.Now().Before(deadline); ops++ {
		in := ops % len(inputs)
		copy(buf, inputs[in])
		traced := tr != nil && ops%2 == 0
		var op int
		var s0 int64
		if traced {
			op, s0 = tr.op(), tr.begin()
		}
		t0 := time.Now()
		res, err := eng.SortContext(ctx, buf)
		d := time.Since(t0)
		if traced {
			tr.set(tr.end(op, "engine", "engine.sort", s0, w.n), err != nil, statsOf(res))
		}
		if verify(in, res, err) {
			keys += w.n
			lat = append(lat, ms(d))
		} else {
			lat = append(lat, math.Inf(1))
		}
		if !traced {
			plain = append(plain, lat[len(lat)-1])
		}
	}
	allocs := float64(allocCount()-a0) / float64(ops)
	heapMB := heap.stop()

	if !o.trace {
		busy := 0.0
		for _, l := range lat {
			if !math.IsInf(l, 1) {
				busy += l / 1e3
			}
		}
		rep.setE2E("setup_s", median(setupS))
		rep.setE2E("p50_ms", median(lat))
		rep.setE2E("p90_ms", quantile(lat, 0.9))
		rep.setE2E("mkeys_s", float64(keys)/busy/1e6)
		rep.setE2E("heap_peak_mb", heapMB)
		return rep, nil
	}

	settle()
	probe := time.Duration(o.seconds*float64(time.Second)) - measure
	probeRadix(tr, rep, shares(inputs, w.n/w.p), probe/4)
	if w.p > 1 {
		probeRemap(tr, rep, inputs[0], w.p, probe/4)
	}
	probeRefs(tr, rep, inputs, slices.Sort[[]uint32], func(in int, out []uint32) error {
		return checkU32(out, refs[in])
	}, probe/4)

	sorts := tr.named("engine.sort")
	rep.setLayer("engine.allocs_per_op", allocs)
	rep.setLayer("tail.p90_ms", quantile(durMs(sorts), 0.9))
	rep.setLayer("trace.overhead_ms", median(durMs(sorts))-median(plain))
	rep.setLayer("setup.new_ms", median(durMs(tr.named("setup.new"))))
	rep.setLayer("setup.first_op_ms", median(durMs(tr.named("setup.first_op"))))
	var run, outside, compute, unattr, remaps, vol, msgs []float64
	for _, s := range sorts {
		run = append(run, s.Res.TimeUs/1e3)
		outside = append(outside, ms(s.dur())-s.Res.TimeUs/1e3)
		compute = append(compute, s.Res.ComputeUs/1e3)
		unattr = append(unattr, (s.Res.TimeUs-s.Res.ComputeUs-s.Res.CommUs)/1e3)
		remaps = append(remaps, float64(s.Res.Remaps))
		vol = append(vol, float64(s.Res.Volume))
		msgs = append(msgs, float64(s.Res.Messages))
	}
	rep.setLayer("remap.count", median(remaps))
	rep.setLayer("remap.volume_keys", median(vol))
	rep.setLayer("remap.messages", median(msgs))
	if w.backend == parbitonic.Native {
		// Under the simulator Result.Time is model time, not wall
		// time, so the engine breakdown exists only natively.
		rep.setLayer("engine.run_ms", median(run))
		rep.setLayer("engine.outside_ms", median(outside))
		rep.setLayer("engine.compute_ms", median(compute))
		rep.setLayer("engine.unattributed_ms", median(unattr))
	} else {
		rep.setLayer("machine.model_us", median(run)*1e3)
	}
	return rep, finishTrace(tr, rep, o)
}
