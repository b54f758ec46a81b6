// Command perfbench is the repository's benchmark: it runs one named
// workload against the library's public entry points for a fixed
// time, checks every output, and prints every metric by name and
// unit as the last line of its standard output. From the root of the
// repository:
//
//	bash perfbench/run.sh --workload smart-p2-u32-1m --seed 1 --seconds 20 --trace 0
//
// The line before the result is a stamp: the workload's P, element
// type and size, the seed, the host (CPU count and model, Go version)
// and the share of CPU time the host lost to other guests during the
// run, which on a shared VM explains most run-to-run spread.
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around every call it makes into a layer of the
// program, writes them under --spans, and reports the per-layer
// metrics derived from them. See workloads.go for what each workload
// loads and why it was chosen.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"parbitonic"
)

// runOpts is one run's command line.
type runOpts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spansDir string
	// tamper, when set, alters each operation's output (a []uint32 or
	// []parbitonic.KV64) and, on the engine workloads, its Result
	// before the checks see them; the self-test uses it to prove that
	// the checks catch a wrong answer.
	tamper func(out any, res *parbitonic.Result)
}

func main() {
	var o runOpts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement time per run")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&o.spansDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	steal0 := cpuSteal()
	rep, err := w.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	rep.stealPct = cpuSteal().since(steal0)
	if err := writeResult(out, w, o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}

// writeResult prints the host stamp and workload description, then the
// result object as the last line.
func writeResult(out *bufio.Writer, w workload, o runOpts, rep *report) error {
	stamp := map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"p": w.p, "elem": w.elem, "keys": w.keys,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpuModel(), "go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	if rep.stealPct >= 0 {
		stamp["cpu_steal_pct"] = rep.stealPct
	}
	if rep.firstFailure != "" {
		stamp["first_failure"] = rep.firstFailure
	}
	want := endToEnd
	got := rep.e2e
	if o.trace {
		want, got = layerMetrics, rep.layer
	}
	metrics := map[string]metric{}
	for _, m := range want {
		v, ok := got[m.name]
		if !ok {
			v = metric{0, m.unit} // the workload bypasses this layer
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			// Only failed operations make a figure non-finite, and
			// they already make the run incorrect; JSON has no Inf.
			v.Value = -1
		}
		metrics[m.name] = v
	}
	for _, line := range []any{
		stamp,
		map[string]any{
			"correct": rep.failed == 0, "attempted": rep.attempted,
			"failed": rep.failed, "metrics": metrics,
		},
	} {
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return nil
}

// cpuModel reads the CPU model name for the host stamp.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes is the host's cumulative CPU time in clock ticks: all of
// it, and the part the hypervisor gave to other guests (steal).
type cpuTimes struct{ total, steal uint64 }

// cpuSteal reads the aggregate CPU line of /proc/stat; it returns the
// zero value where that file does not exist.
func cpuSteal() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t cpuTimes
	for i := 1; i < len(f) && i <= 8; i++ { // guest time is already in user time
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// since returns the share of CPU time stolen from this host since
// start, in percent, or -1 where it cannot be read. A run on a host
// that loses CPU time to other guests reads slower by about that much.
func (t cpuTimes) since(start cpuTimes) float64 {
	if t.total <= start.total {
		return -1
	}
	return 100 * float64(t.steal-start.steal) / float64(t.total-start.total)
}

// finishTrace writes the run's spans and reports how many there were.
func finishTrace(tr *tracer, rep *report, o runOpts) error {
	rep.setLayer("trace.spans", float64(len(tr.spans)))
	path, err := tr.write(o.spansDir, o.workload, o.seed)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	return nil
}
