// Command bench runs the repository's pinned benchmark sweep — sizes ×
// element types × backends, fixed shapes plus the autotuner — and
// writes a schema-versioned BENCH_<name>.json snapshot. It is the
// reproducible performance-trajectory harness: CI runs it with -quick
// against the committed BENCH_baseline.json and fails on regression.
//
// Usage:
//
//	bench [-quick] [-out FILE] [-baseline FILE] [-reps N]
//	      [-profile FILE] [-sim-tolerance F] [-native-tolerance F]
//	      [-strict-native]
//
// Three gates, strongest evidence first:
//
//   - Autotuner gate (always, self-contained): for every native
//     (size, elem) group, the Auto run must beat the worst fixed shape
//     and land within 10% of the best (min over reps on both sides).
//     This is the acceptance bar for Config.Auto: the planner may not
//     pick a bad shape, and must be competitive with the best.
//   - Simulated gate (with -baseline): simulated entries are model
//     time — deterministic and host-independent — so they must match
//     the baseline within -sim-tolerance (default 0.1%). A mismatch
//     means the cost model changed; regenerate the baseline if that
//     was intended.
//   - Native shape gate (with -baseline): native wall times are
//     host-dependent, so entries are normalized per (size, elem)
//     group to the smart/p1 anchor and the RATIOS compared within a
//     factor of -native-tolerance. Warns by default (CPU counts
//     differ across hosts); -strict-native turns warnings into
//     failures for same-host trend tracking.
//
// See TUNING.md for how to read BENCH_*.json and when to regenerate
// the baseline.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/bitseq"
	"parbitonic/internal/localsort"
	"parbitonic/internal/workload"
)

// BenchSchema and BenchVersion identify the snapshot format; Load
// rejects anything else, so readers never misinterpret a foreign or
// future file.
const (
	BenchSchema  = "parbitonic-bench"
	BenchVersion = 2 // v2: kernel microbench entries (backend "kernel")
)

// Entry is one measured configuration. US is the trimmed-mean time in
// the backend's own unit — wall µs for native, model µs for simulated
// — and MinUS the fastest rep (the noise-robust value the gates use).
type Entry struct {
	Backend string  `json:"backend"` // "native" or "simulated"
	Config  string  `json:"config"`  // "auto", "smart/p1", "cyclic-blocked/p2", ...
	Elem    string  `json:"elem"`
	Size    int     `json:"size"` // total keys
	US      float64 `json:"us"`
	MinUS   float64 `json:"min_us"`
	// Plan, PlanConfig and PredictedUS are set for auto entries: what
	// the planner chose (PlanConfig in the fixed sweep's config-key
	// form, e.g. "smart/p1") and what it predicted, so snapshots
	// record mispredictions.
	Plan        string  `json:"plan,omitempty"`
	PlanConfig  string  `json:"plan_config,omitempty"`
	PredictedUS float64 `json:"predicted_us,omitempty"`
}

// Snapshot is the BENCH_*.json document.
type Snapshot struct {
	Schema  string  `json:"schema"`
	Version int     `json:"version"`
	Quick   bool    `json:"quick"`
	GoOS    string  `json:"goos"`
	GoArch  string  `json:"goarch"`
	CPUs    int     `json:"cpus"`
	Entries []Entry `json:"entries"`
}

func main() {
	quick := flag.Bool("quick", false, "smaller sizes and fewer reps (the CI sweep)")
	out := flag.String("out", "BENCH_host.json", "snapshot output path")
	baseline := flag.String("baseline", "", "compare against this committed snapshot and gate on regression")
	reps := flag.Int("reps", 0, "native reps per entry after one warmup (0 = 5, or 3 with -quick)")
	profilePath := flag.String("profile", "", "machine profile for the auto entries (default: the user cache dir)")
	simTol := flag.Float64("sim-tolerance", 0.001, "max relative deviation of simulated model times from baseline")
	nativeTol := flag.Float64("native-tolerance", 3.0, "max factor between host and baseline normalized native ratios")
	strictNative := flag.Bool("strict-native", false, "fail (not warn) on native ratio deviations — same-host trend tracking")
	autoTol := flag.Float64("auto-tolerance", 0.10, "auto must be within this fraction of the best fixed shape")
	flag.Parse()

	r := *reps
	if r <= 0 {
		r = 5
		if *quick {
			r = 3
		}
	}
	snap, err := runSweep(*quick, r, *profilePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data, _ := json.MarshalIndent(snap, "", "  ")
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("bench: %d entries -> %s (quick=%v, %d CPUs)\n", len(snap.Entries), *out, *quick, snap.CPUs)

	failures := gateAuto(snap, *autoTol)
	if *baseline != "" {
		base, err := loadSnapshot(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: baseline: %v\n", err)
			os.Exit(1)
		}
		f, warns := compare(snap, base, *simTol, *nativeTol)
		for _, w := range warns {
			if *strictNative {
				failures = append(failures, w)
			} else {
				fmt.Printf("bench: WARN %s\n", w)
			}
		}
		failures = append(failures, f...)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "bench: FAIL %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("bench: all gates passed")
}

// sweepSizes and sweepElems pin the sweep so every snapshot measures
// the same grid and baselines stay comparable.
func sweepSizes(quick bool) []int {
	if quick {
		return []int{1 << 10, 1 << 12}
	}
	return []int{1 << 12, 1 << 14, 1 << 16}
}

func sweepElems(quick bool) []element.Type {
	if quick {
		return []element.Type{element.TU32, element.TKV64}
	}
	return []element.Type{element.TU32, element.TU64, element.TKV64}
}

// fixedShapes are the fixed configurations each group races: every
// algorithm the planner can choose, at P up to 4 (P=1 collapses them
// all to one sequential sort, so only smart runs there). Covering the
// full candidate set means an auto plan always has a fixed twin
// measured by the same methodology for the gate to score.
func fixedShapes(size int) []parbitonic.Config {
	var out []parbitonic.Config
	algs := []parbitonic.Algorithm{
		parbitonic.SmartBitonic, parbitonic.CyclicBlockedBitonic, parbitonic.BlockedMergeBitonic,
		parbitonic.SampleSort, parbitonic.RadixSort,
	}
	for p := 1; p <= 4 && p <= size/2; p *= 2 {
		for _, alg := range algs {
			if p == 1 && alg != parbitonic.SmartBitonic {
				continue
			}
			out = append(out, parbitonic.Config{Processors: p, Algorithm: alg})
		}
	}
	return out
}

// shapeName renders a fixed shape's stable entry key.
func shapeName(cfg parbitonic.Config) string {
	var alg string
	switch cfg.Algorithm {
	case parbitonic.SmartBitonic:
		alg = "smart"
	case parbitonic.CyclicBlockedBitonic:
		alg = "cyclic-blocked"
	case parbitonic.BlockedMergeBitonic:
		alg = "blocked-merge"
	case parbitonic.SampleSort:
		alg = "sample"
	case parbitonic.RadixSort:
		alg = "radix"
	default:
		alg = cfg.Algorithm.String()
	}
	return fmt.Sprintf("%s/p%d", alg, cfg.Processors)
}

// runSweep measures the full grid and assembles the snapshot.
func runSweep(quick bool, reps int, profilePath string) (*Snapshot, error) {
	snap := &Snapshot{
		Schema: BenchSchema, Version: BenchVersion, Quick: quick,
		GoOS: runtime.GOOS, GoArch: runtime.GOARCH, CPUs: runtime.NumCPU(),
	}
	for _, size := range sweepSizes(quick) {
		for _, et := range sweepElems(quick) {
			for _, backend := range []parbitonic.Backend{parbitonic.Simulated, parbitonic.Native} {
				entries, err := benchGroup(et, size, backend, reps, profilePath)
				if err != nil {
					return nil, fmt.Errorf("bench: %v %v size %d: %w", et, backend, size, err)
				}
				snap.Entries = append(snap.Entries, entries...)
			}
		}
	}
	snap.Entries = append(snap.Entries, kernelSweep(quick, reps)...)
	return snap, nil
}

// kernelSweep measures the localsort kernel layer directly — the
// microbench section of the snapshot (backend "kernel"), one size per
// sweep so the end-to-end trajectory can be split into kernel-level
// and orchestration-level movement. Kernel times are wall µs and
// host-dependent; the gates leave them alone, they are recorded for
// trend tracking.
func kernelSweep(quick bool, reps int) []Entry {
	size := 1 << 20
	if quick {
		size = 1 << 16
	}
	var out []Entry
	for _, et := range sweepElems(quick) {
		switch et {
		case element.TU32:
			out = append(out, kernelGroupOf[uint32](size, reps)...)
		case element.TU64:
			out = append(out, kernelGroupOf[uint64](size, reps)...)
		case element.TF32:
			out = append(out, kernelGroupOf[float32](size, reps)...)
		case element.TF64:
			out = append(out, kernelGroupOf[float64](size, reps)...)
		case element.TKV64:
			out = append(out, kernelGroupOf[element.KV64](size, reps)...)
		}
	}
	return append(out, radixCurve(reps)...)
}

// radixCurve records the u32 radix sort at 32K..512K keys (config
// "radix-curve"), the range where the flat 8-bit LSD hands over to the
// MSD+LSD hybrid, so the crossover stays visible across snapshots.
// Like every kernel entry it is recorded, never gated.
func radixCurve(reps int) []Entry {
	var out []Entry
	for size := 1 << 15; size <= 1<<19; size <<= 1 {
		keys := workload.Elems[uint32](workload.Uniform31, size, 1996)
		work := make([]uint32, size)
		scratch := make([]uint32, size)
		mean, min := measureKernel(reps, func() {
			copy(work, keys)
			localsort.RadixSortScratch(work, scratch)
		})
		out = append(out, Entry{
			Backend: "kernel", Config: "radix-curve",
			Elem: element.TU32.String(), Size: size,
			US: mean, MinUS: min,
		})
	}
	return out
}

// kernelGroupOf measures one element type's kernels: the hybrid radix
// sort, the full local sort (radix + direction fix-up), the bitonic
// merge of a bitonic sequence, and the two-way merge — the per-phase
// primitives every parallel run is built from.
func kernelGroupOf[E element.Elem](size, reps int) []Entry {
	keys := workload.Elems[E](workload.Uniform31, size, 1996)
	work := make([]E, size)
	scratch := make([]E, size)

	// A bitonic input for the merge kernel: ascending then descending.
	bitonic := append([]E(nil), keys...)
	localsort.SortScratch(bitonic[:size/2], true, scratch)
	localsort.SortScratch(bitonic[size/2:], false, scratch)
	a := append([]E(nil), keys[:size/2]...)
	b := append([]E(nil), keys[size/2:]...)
	localsort.SortScratch(a, true, scratch)
	localsort.SortScratch(b, true, scratch)

	var out []Entry
	for _, k := range []struct {
		name string
		f    func()
	}{
		{"radix", func() { copy(work, keys); localsort.RadixSortScratch(work, scratch) }},
		{"localsort", func() { copy(work, keys); localsort.SortScratch(work, true, scratch) }},
		{"bitonic-merge", func() { bitseq.SortBitonic(work, bitonic, true) }},
		{"merge-two", func() { localsort.MergeTwo(work, a, b, true) }},
	} {
		mean, min := measureKernel(reps, k.f)
		out = append(out, Entry{
			Backend: "kernel", Config: k.name,
			Elem: element.TypeOf[E]().String(), Size: size,
			US: mean, MinUS: min,
		})
	}
	return out
}

// measureKernel is measureSort's methodology for an in-process kernel:
// one warmup, reps wall-clock measurements, trimmed mean + minimum.
func measureKernel(reps int, f func()) (mean, min float64) {
	times := make([]float64, 0, reps)
	for i := 0; i <= reps; i++ {
		start := time.Now()
		f()
		if i == 0 {
			continue // warmup
		}
		times = append(times, float64(time.Since(start).Nanoseconds())/1e3)
	}
	sort.Float64s(times)
	lo, hi := 0, len(times)
	if len(times) >= 5 {
		lo, hi = 1, len(times)-1
	}
	sum := 0.0
	for _, t := range times[lo:hi] {
		sum += t
	}
	return sum / float64(hi-lo), times[0]
}

// benchGroup measures one (elem, size, backend) group: every fixed
// shape plus the autotuner.
func benchGroup(et element.Type, size int, backend parbitonic.Backend, reps int, profilePath string) ([]Entry, error) {
	switch et {
	case element.TU32:
		return benchGroupOf[uint32](size, backend, reps, profilePath)
	case element.TU64:
		return benchGroupOf[uint64](size, backend, reps, profilePath)
	case element.TF32:
		return benchGroupOf[float32](size, backend, reps, profilePath)
	case element.TF64:
		return benchGroupOf[float64](size, backend, reps, profilePath)
	case element.TKV64:
		return benchGroupOf[element.KV64](size, backend, reps, profilePath)
	}
	return nil, fmt.Errorf("unknown element type %v", et)
}

func benchGroupOf[E element.Elem](size int, backend parbitonic.Backend, reps int, profilePath string) ([]Entry, error) {
	bname := "simulated"
	if backend == parbitonic.Native {
		bname = "native"
	} else {
		reps = 1 // model time is deterministic
	}
	var entries []Entry
	for _, cfg := range fixedShapes(size) {
		cfg.Backend = backend
		// Same instrumentation as the auto run below, so the
		// comparison measures the shape and not the reporting.
		cfg.Observe = func(parbitonic.SortReport) {}
		mean, min, err := measureSort[E](size, cfg, reps)
		if err != nil {
			return nil, err
		}
		entries = append(entries, Entry{
			Backend: bname, Config: shapeName(cfg),
			Elem: element.TypeOf[E]().String(), Size: size,
			US: mean, MinUS: min,
		})
	}
	// Processors caps the planner's candidate P at the fixed sweep's
	// ceiling: the race stays apples-to-apples, and the simulated auto
	// plan (hence its model time, which the strict baseline gate
	// checks) cannot vary with the host's GOMAXPROCS.
	auto := parbitonic.Config{Auto: true, Processors: 4, Backend: backend, ProfilePath: profilePath}
	var plan parbitonic.Plan
	auto.Observe = func(r parbitonic.SortReport) {
		if r.Plan != nil {
			plan = *r.Plan
		}
	}
	mean, min, err := measureSort[E](size, auto, reps)
	if err != nil {
		return nil, err
	}
	entries = append(entries, Entry{
		Backend: bname, Config: "auto",
		Elem: element.TypeOf[E]().String(), Size: size,
		US: mean, MinUS: min,
		Plan:        plan.String(),
		PlanConfig:  shapeName(parbitonic.Config{Processors: plan.Processors, Algorithm: plan.Algorithm}),
		PredictedUS: plan.PredictedUS,
	})
	return entries, nil
}

// measureSort runs one warmup plus reps measured sorts and returns the
// trimmed mean (drop min and max when reps >= 5) and the minimum of
// the measured times, in the backend's µs.
func measureSort[E element.Elem](size int, cfg parbitonic.Config, reps int) (mean, min float64, err error) {
	times := make([]float64, 0, reps)
	for i := 0; i <= reps; i++ {
		data := workload.Elems[E](workload.Uniform31, size, 1996)
		res, serr := parbitonic.SortContext(context.Background(), data, cfg)
		if serr != nil {
			return 0, 0, serr
		}
		if i == 0 {
			continue // warmup
		}
		times = append(times, res.Time)
	}
	sort.Float64s(times)
	lo, hi := 0, len(times)
	if len(times) >= 5 {
		lo, hi = 1, len(times)-1
	}
	sum := 0.0
	for _, t := range times[lo:hi] {
		sum += t
	}
	return sum / float64(hi-lo), times[0], nil
}

// groupKey identifies a (backend, elem, size) gate group.
type groupKey struct {
	backend, elem string
	size          int
}

// entryKey identifies one entry across snapshots.
type entryKey struct {
	groupKey
	config string
}

func index(s *Snapshot) map[entryKey]Entry {
	out := make(map[entryKey]Entry, len(s.Entries))
	for _, e := range s.Entries {
		out[entryKey{groupKey{e.Backend, e.Elem, e.Size}, e.Config}] = e
	}
	return out
}

// gateAuto enforces the autotuner acceptance bar on every native
// group: the planner's choice beats the worst fixed shape and lands
// within tol of the best. The planner is judged on the shape it
// chose, so the gate scores the fixed sweep's own measurement of that
// shape (identical methodology on both sides, min over reps) — the
// separate auto-run measurement of the same configuration would only
// add a second helping of timer noise. When the chosen shape is
// missing from the fixed sweep (a non-bitonic plan), the auto run's
// time stands in for it.
func gateAuto(s *Snapshot, tol float64) []string {
	groups := map[groupKey][]Entry{}
	for _, e := range s.Entries {
		if e.Backend != "native" {
			continue
		}
		groups[groupKey{e.Backend, e.Elem, e.Size}] = append(groups[groupKey{e.Backend, e.Elem, e.Size}], e)
	}
	var failures []string
	for k, entries := range groups {
		var auto *Entry
		best, worst := 0.0, 0.0
		fixed := map[string]float64{}
		for i, e := range entries {
			if e.Config == "auto" {
				auto = &entries[i]
				continue
			}
			fixed[e.Config] = e.MinUS
			if best == 0 || e.MinUS < best {
				best = e.MinUS
			}
			if e.MinUS > worst {
				worst = e.MinUS
			}
		}
		if auto == nil || best == 0 {
			continue
		}
		chosen, ok := fixed[auto.PlanConfig]
		if !ok {
			chosen = auto.MinUS
		}
		if chosen > worst {
			failures = append(failures, fmt.Sprintf(
				"auto gate %s/%s/%d: chosen shape %.1fus slower than the worst fixed shape %.1fus (plan %s)",
				k.backend, k.elem, k.size, chosen, worst, auto.Plan))
		}
		if chosen > best*(1+tol) {
			failures = append(failures, fmt.Sprintf(
				"auto gate %s/%s/%d: chosen shape %.1fus not within %.0f%% of the best fixed shape %.1fus (plan %s)",
				k.backend, k.elem, k.size, chosen, tol*100, best, auto.Plan))
		}
	}
	sort.Strings(failures)
	return failures
}

// compare checks the host snapshot against the committed baseline over
// their common entries. Simulated model times are deterministic, so
// deviations beyond simTol are failures. Native wall times are
// host-dependent: each entry is normalized to its group's smart/p1
// anchor and the ratios compared within a factor of nativeTol —
// returned as warnings for the caller to escalate (-strict-native).
func compare(host, base *Snapshot, simTol, nativeTol float64) (failures, warnings []string) {
	hi, bi := index(host), index(base)
	for k, be := range bi {
		he, ok := hi[k]
		if !ok {
			continue // the quick sweep is a subset of the full grid
		}
		switch k.backend {
		case "simulated":
			if dev := relDev(he.US, be.US); dev > simTol {
				failures = append(failures, fmt.Sprintf(
					"simulated %s/%s/%d %s: model time %.2fus vs baseline %.2fus (%.2f%% > %.2f%%) — the cost model changed; regenerate the baseline if intended",
					k.backend, k.elem, k.size, k.config, he.US, be.US, dev*100, simTol*100))
			}
		case "native":
			anchor := entryKey{k.groupKey, "smart/p1"}
			ha, hok := hi[anchor]
			ba, bok := bi[anchor]
			if !hok || !bok || k.config == "smart/p1" || ha.MinUS == 0 || ba.MinUS == 0 {
				continue
			}
			hr, br := he.MinUS/ha.MinUS, be.MinUS/ba.MinUS
			if hr > br*nativeTol || br > hr*nativeTol {
				warnings = append(warnings, fmt.Sprintf(
					"native %s/%d %s: normalized ratio %.2f vs baseline %.2f (beyond x%.1f; hosts have %d vs %d CPUs)",
					k.elem, k.size, k.config, hr, br, nativeTol, host.CPUs, base.CPUs))
			}
		}
	}
	sort.Strings(failures)
	sort.Strings(warnings)
	return failures, warnings
}

func relDev(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	d := (a - b) / b
	if d < 0 {
		d = -d
	}
	return d
}

// loadSnapshot reads and validates a BENCH_*.json file.
func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != BenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, BenchSchema)
	}
	if s.Version != BenchVersion {
		return nil, fmt.Errorf("%s: version %d, want %d — regenerate with this cmd/bench", path, s.Version, BenchVersion)
	}
	return &s, nil
}
