package main

import "fmt"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run measured: the operation counts and
// every metric, end-to-end and per-layer, by name.
type report struct {
	attempted, failed int
	firstFailure      string
	stealPct          float64 // host CPU time lost to other guests during the run, -1 if unknown
	e2e, layer        map[string]metric
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// fail counts one failed operation and keeps the first reason for the
// diagnostic line.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

// endToEnd are the metrics a user of the library sees, reported with
// tracing off on every workload; layerMetrics are reported by the
// traced run on every workload, 0 where the workload bypasses the
// layer. Units are fixed here so a run cannot mislabel one.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"mkeys_s", "Mkeys/s"},
	{"heap_peak_mb", "MB"},
}

var layerMetrics = []struct{ name, unit string }{
	{"localsort.radix_ns_key", "ns/key"},
	{"localsort.merge_ns_key", "ns/key"},
	{"addr.route_ns_key", "ns/key"},
	{"remap.count", "count"},
	{"remap.volume_keys", "keys"},
	{"remap.messages", "count"},
	{"engine.run_ms", "ms"},
	{"engine.outside_ms", "ms"},
	{"engine.compute_ms", "ms"},
	{"engine.unattributed_ms", "ms"},
	{"engine.allocs_per_op", "allocs"},
	{"setup.new_ms", "ms"},
	{"setup.first_op_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.batch_ms", "ms"},
	{"serve.engine_ms", "ms"},
	{"serve.copyout_ms", "ms"},
	{"serve.reqs_per_run", "reqs"},
	{"serve.retries", "count"},
	{"serve.degraded", "count"},
	{"serve.rejected", "count"},
	{"serve.gen_late_ms", "ms"},
	{"machine.model_us", "us"},
	{"ref.p1_ms", "ms"},
	{"ref.stdlib_ms", "ms"},
	{"tail.p90_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
}

func unitOf(list []struct{ name, unit string }, name string) string {
	for _, m := range list {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unknown metric " + name)
}

func (r *report) setE2E(name string, v float64) {
	r.e2e[name] = metric{v, unitOf(endToEnd, name)}
}

func (r *report) setLayer(name string, v float64) {
	r.layer[name] = metric{v, unitOf(layerMetrics, name)}
}
