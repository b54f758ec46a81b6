package main

import "parbitonic"

// workload is one named input set the benchmark runs.
type workload struct {
	name string
	p    int    // processors per engine
	elem string // element type
	keys string // keys per operation
	run  func(runOpts) (*report, error)
}

// The workloads vary one factor at a time against the layers of the
// program (kernel: internal/localsort, internal/bitseq; remap:
// internal/addr routing and the internal/spmd exchange; engine: the
// root package's staging, compile, run and copy-out over internal/core
// and internal/native; serve: internal/serve; sim: the
// internal/machine LogGP charger). internal/tune is left out on
// purpose: Config.Auto reads a profile from the user cache directory,
// which is hidden state.
//
// Which end-to-end metric each per-layer metric should move:
//
//	localsort.radix_ns_key  -> p50_ms and mkeys_s on serve most; p50_ms on smart-p2 less
//	localsort.merge_ns_key  -> p50_ms on smart-p2
//	addr.route_ns_key       -> p50_ms on smart-p2 and sim; nothing on serve
//	remap.count/volume_keys/messages -> exact counts; move only if the algorithm changes
//	engine.run_ms, engine.compute_ms -> p50_ms on smart-p2
//	engine.outside_ms       -> p50_ms on smart-p2 (NaN scan, stage-in, copy-out)
//	engine.unattributed_ms  -> no end-to-end metric (time the engine reports but does not attribute)
//	engine.allocs_per_op    -> heap_peak_mb
//	setup.new_ms, setup.first_op_ms -> setup_s
//	serve.queue_ms/batch_ms/engine_ms/copyout_ms -> p50_ms and p90_ms on serve
//	serve.reqs_per_run      -> mkeys_s on serve
//	serve.retries/degraded/rejected -> failure accounting; 0 on a healthy run
//	serve.gen_late_ms       -> none: checks that the open-loop generator kept its schedule
//	machine.model_us        -> none: must repeat exactly
//	ref.p1_ms, ref.stdlib_ms -> none: the baselines smart-p2's p50_ms is compared against
//	tail.p90_ms             -> none: the single caller of a sort workload feels the median
var workloads = []workload{
	// smart-p2-u32-1m: native smart sort at P = 2, one engine reused by
	// one caller sorting 1M uniform 31-bit keys (the paper's §5.3
	// input) back to back. Chosen because it is the shape on which the
	// parallel native sort must beat P=1 and slices.Sort. Loads the
	// remap layer and its merge kernel (route tables, gather, k-way
	// merge), the radix kernel and the engine's staging and copy-out.
	// Bypasses serve and the simulator.
	{
		name: "smart-p2-u32-1m", p: 2, elem: "u32", keys: "1048576",
		run: func(o runOpts) (*report, error) {
			return runEngine(engineSpec{p: 2, n: 1 << 20, backend: parbitonic.Native, inputs: 4, setups: 7}, o)
		},
	},
	// serve-kv64-mixed: see serve.go.
	{
		name: "serve-kv64-mixed", p: 1, elem: "kv64", keys: "256..65536 log-uniform",
		run: runServe,
	},
	// sim-p16-u32-64k: simulated smart sort at P = 16 on 64K keys
	// (4K per processor, five remaps as in the paper's Table 5.4), one
	// engine reused. Chosen because it is the paper-reproduction path:
	// it loads the LogGP charger and the packed remap path that native
	// sorts need not take, and catches shared-code changes that slow
	// or alter the simulator — its model time and R/V/M counts are
	// checked exactly on every sort. Bypasses serve and the native
	// backend.
	{
		name: "sim-p16-u32-64k", p: 16, elem: "u32", keys: "65536",
		run: func(o runOpts) (*report, error) {
			return runEngine(engineSpec{
				p: 16, n: 1 << 16, backend: parbitonic.Simulated, inputs: 8, setups: 25,
				model: &simP16Model,
			}, o)
		},
	},
}

// simP16Model is what the simulator reports for every smart sort of
// 64K keys on 16 processors: the LogGP model time at this shape, and
// per-processor R/V/M counts equal to the paper's §3.4 closed forms,
// R being the length of the smart schedule.
var simP16Model = func() simModel {
	m := simModel{timeUs: 63008.420000000006, remaps: len(parbitonic.SmartSchedule(16, 4))}
	for _, pr := range parbitonic.Predict(16, 4, true, nil) {
		if pr.Strategy == "smart" {
			m.volume, m.msgs = pr.Volume, pr.Msg
		}
	}
	return m
}()

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}
