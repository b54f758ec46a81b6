package tune

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"parbitonic/element"
	"parbitonic/internal/logp"
)

// exampleProfile loads the committed test profile that TUNING.md's
// worked example is written against.
func exampleProfile(t *testing.T) *Profile {
	t.Helper()
	p, err := Load(filepath.Join("testdata", "profile_example.json"))
	if err != nil {
		t.Fatalf("loading example profile: %v", err)
	}
	return p
}

func TestProfileRoundTrip(t *testing.T) {
	p := Fallback()
	p.CreatedAt = "2026-08-08T00:00:00Z"
	hostStamp(p)
	path := filepath.Join(t.TempDir(), "nested", "profile.json")
	if err := p.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Errorf("round trip mismatch:\nsaved  %+v\nloaded %+v", p, got)
	}
}

func TestProfileForwardCompat(t *testing.T) {
	// Unknown fields must be ignored: a profile written by a future
	// build that only added fields still loads.
	raw, err := os.ReadFile(filepath.Join("testdata", "profile_example.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["future_field"] = map[string]any{"nested": true}
	doc["another_unknown"] = 42
	withUnknown, _ := json.Marshal(doc)
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := os.WriteFile(path, withUnknown, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Load(path)
	if err != nil {
		t.Fatalf("profile with unknown fields must load: %v", err)
	}
	if p.Comm.RemapNS != 10000 {
		t.Errorf("RemapNS = %v after unknown-field load, want 10000", p.Comm.RemapNS)
	}

	// A different format version must be rejected, not misread.
	doc["version"] = ProfileVersion + 1
	versioned, _ := json.Marshal(doc)
	if err := os.WriteFile(path, versioned, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("profile with version mismatch must be rejected")
	}

	// So must a foreign schema.
	doc["version"] = ProfileVersion
	doc["schema"] = "something-else"
	foreign, _ := json.Marshal(doc)
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("profile with foreign schema must be rejected")
	}
}

func TestProfileValidate(t *testing.T) {
	p := Fallback()
	delete(p.Kernels, "u32")
	if err := p.Validate(); err == nil {
		t.Error("profile without u32 kernels must not validate")
	}
	p = Fallback()
	k := p.Kernels["u32"]
	k.MergeNS = -1
	p.Kernels["u32"] = k
	if err := p.Validate(); err == nil {
		t.Error("negative kernel cost must not validate")
	}
}

func TestKernelsForScalesMissingTypes(t *testing.T) {
	p := exampleProfile(t)
	// u64 is present verbatim.
	if got := p.KernelsFor(element.TU64); got.MergeNS != 4.0 {
		t.Errorf("u64 MergeNS = %v, want the profile's 4.0", got.MergeNS)
	}
	// kv64 is absent: width-scaled (16 bytes = 4 words) from u32.
	got := p.KernelsFor(element.TKV64)
	if got.MergeNS != 8.0 || got.CopyNS != 2.0 {
		t.Errorf("kv64 scaled kernels = %+v, want 4x the u32 costs", got)
	}
}

func TestLoadOrFallback(t *testing.T) {
	// Missing file falls back.
	p, calibrated, err := LoadOrFallback(filepath.Join(t.TempDir(), "missing.json"))
	if err != nil || calibrated || p.Source != "fallback" {
		t.Errorf("missing profile: got (%v, %v, %v), want fallback", p.Source, calibrated, err)
	}
	// A corrupt file the operator pointed at must error, not be masked.
	path := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadOrFallback(path); err == nil {
		t.Error("corrupt profile must surface an error")
	}
}

// TestPlannerGoldenSmall hand-computes the worked example of TUNING.md
// from the committed profile: sorting 4096 uint32 keys on up to 4
// processors. Every plan cost below is derived by hand from the §3.4
// closed forms and the profile's round-number costs; the planner must
// reproduce them exactly.
func TestPlannerGoldenSmall(t *testing.T) {
	pl := &Planner{Profile: exampleProfile(t), MaxP: 4, Backend: BackendNative}
	ranked, err := pl.Rank(4096, element.TU32)
	if err != nil {
		t.Fatal(err)
	}

	// P=1: compute only, 3 radix passes x 1 ns over 4096 keys = 12.288 µs.
	best := ranked[0]
	if best.Algorithm != AlgSmart || best.Processors != 1 {
		t.Fatalf("best plan = %v, want sequential smart (P=1)", best)
	}
	wantSeq := 3 * 0.001 * 4096 // µs
	if !close(best.PredictedUS, wantSeq) {
		t.Errorf("P=1 predicted = %v µs, want %v", best.PredictedUS, wantSeq)
	}

	// P=2 smart: n=2048, lgN=12, lgP=1. The schedule has R=2 remaps,
	// each changing 1 bit: V = 2*(2048-1024) = 2048, M = 2*(2^1-1) = 2.
	// Those metrics must agree with logp.Smart.
	sm := logp.Smart(12, 1)
	if sm.R != 2 || sm.V != 2048 || sm.M != 2 {
		t.Fatalf("logp.Smart(12,1) = %+v; the hand computation below assumes R=2,V=2048,M=2", sm)
	}
	p2 := findPlan(ranked, AlgSmart, 2, "head")
	if p2 == nil {
		t.Fatal("no P=2 smart plan in ranking")
	}
	// compute = 3 passes·1ns·2048 + 2 merges·2ns·2048   = 6.144+8.192 µs
	// comm    = 10µs·2 + 0.001µs·2048 + 0.1µs·2         = 22.248 µs
	wantCompute := 3*0.001*2048 + 2*0.002*2048
	wantComm := 10.0*2 + 0.001*2048 + 0.1*2
	if !close(p2.ComputeUS, wantCompute) || !close(p2.CommUS, wantComm) {
		t.Errorf("P=2 smart = compute %v comm %v, want %v / %v",
			p2.ComputeUS, p2.CommUS, wantCompute, wantComm)
	}
	if p2.R != 2 || p2.V != 2048 || p2.M != 2 {
		t.Errorf("P=2 smart metrics = R=%d V=%d M=%d, want 2/2048/2", p2.R, p2.V, p2.M)
	}

	// P=2 blocked-merge: R=1 step, V=2048, M=1; the compare-split works
	// over 2n keys. compute = 6.144 + 1·2ns·2·2048 + 1ns·2048 = 16.384,
	// comm = 10 + 2.048 + 0.1 = 12.148.
	bm := findPlan(ranked, AlgBlockedMerge, 2, "head")
	if bm == nil {
		t.Fatal("no P=2 blocked-merge plan in ranking")
	}
	if !close(bm.PredictedUS, 16.384+12.148) {
		t.Errorf("P=2 blocked-merge predicted = %v, want 28.532", bm.PredictedUS)
	}

	// Determinism: ranking twice gives the same order.
	again, _ := pl.Rank(4096, element.TU32)
	for i := range ranked {
		if ranked[i] != again[i] {
			t.Fatalf("rank not deterministic at %d: %v vs %v", i, ranked[i], again[i])
		}
	}
}

// TestPlannerPrefersParallelAtScale: with the same profile, a large
// input amortizes the fixed remap cost and the planner must leave P=1.
func TestPlannerPrefersParallelAtScale(t *testing.T) {
	pl := &Planner{Profile: exampleProfile(t), MaxP: 8, Backend: BackendNative}
	plan, err := pl.Plan(1<<22, element.TU32)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Processors < 2 {
		t.Errorf("plan for 4M keys = %v, want a parallel shape", plan)
	}
	seq := findPlan(mustRank(t, pl, 1<<22, element.TU32), AlgSmart, 1, "head")
	if seq == nil || seq.PredictedUS <= plan.PredictedUS {
		t.Errorf("sequential (%v) should predict slower than chosen %v", seq, plan)
	}
}

// TestPlannerSimulatedMatchesModel: simulated-backend scores must be
// expressed in the simulator's own units — the comm term must equal
// logp.TotalLong under Meiko parameters exactly.
func TestPlannerSimulatedMatchesModel(t *testing.T) {
	pl := &Planner{Profile: exampleProfile(t), MaxP: 4, Backend: BackendSimulated}
	ranked := mustRank(t, pl, 4096, element.TU32)
	p2 := findPlan(ranked, AlgSmart, 2, "head")
	if p2 == nil {
		t.Fatal("no P=2 simulated smart plan")
	}
	params := logp.MeikoCS2(2)
	sm := logp.Smart(12, 1)
	want := params.TotalLong(sm.R, sm.V, sm.M)
	if !close(p2.CommUS, want) {
		t.Errorf("simulated comm = %v, want logp.TotalLong = %v", p2.CommUS, want)
	}
	// The profile's native costs must not leak into simulated scores:
	// wiping them changes nothing.
	blank := &Planner{Profile: Fallback(), MaxP: 4, Backend: BackendSimulated}
	b2 := findPlan(mustRank(t, blank, 4096, element.TU32), AlgSmart, 2, "head")
	if b2 == nil || !close(b2.PredictedUS, p2.PredictedUS) {
		t.Errorf("simulated score depends on the machine profile: %v vs %v", b2, p2)
	}
}

// TestPlannerWidthScaling: a wider element must never score cheaper
// than the same plan shape for a narrower one.
func TestPlannerWidthScaling(t *testing.T) {
	pl := &Planner{Profile: exampleProfile(t), MaxP: 4, Backend: BackendNative}
	for _, n := range []int{1 << 10, 1 << 16} {
		u32 := findPlan(mustRank(t, pl, n, element.TU32), AlgSmart, 2, "head")
		u64 := findPlan(mustRank(t, pl, n, element.TU64), AlgSmart, 2, "head")
		if u32 == nil || u64 == nil {
			t.Fatalf("missing P=2 smart plan at n=%d", n)
		}
		if u64.PredictedUS <= u32.PredictedUS {
			t.Errorf("n=%d: u64 plan (%v µs) must cost more than u32 (%v µs)",
				n, u64.PredictedUS, u32.PredictedUS)
		}
	}
}

// TestPlannerStrategies: the Lemma 5 variants appear only when asked,
// only on the simulated backend, and never beat Head under the default
// model (they imply step simulation).
func TestPlannerStrategies(t *testing.T) {
	base := &Planner{Profile: exampleProfile(t), MaxP: 4, Backend: BackendSimulated}
	if p := findPlan(mustRank(t, base, 1<<14, element.TU32), AlgSmart, 4, "tail"); p != nil {
		t.Error("tail strategy enumerated without AllStrategies")
	}
	all := &Planner{Profile: exampleProfile(t), MaxP: 4, Backend: BackendSimulated, AllStrategies: true}
	ranked := mustRank(t, all, 1<<14, element.TU32)
	tail := findPlan(ranked, AlgSmart, 4, "tail")
	head := findPlan(ranked, AlgSmart, 4, "head")
	if tail == nil || head == nil {
		t.Fatal("missing strategy plans under AllStrategies")
	}
	if tail.PredictedUS <= head.PredictedUS {
		t.Errorf("tail (step simulation, %v µs) should score above head (%v µs)",
			tail.PredictedUS, head.PredictedUS)
	}
	native := &Planner{Profile: exampleProfile(t), MaxP: 4, Backend: BackendNative, AllStrategies: true}
	if p := findPlan(mustRank(t, native, 1<<14, element.TU32), AlgSmart, 4, "tail"); p != nil {
		t.Error("native backend must not enumerate step-simulation strategies")
	}
}

func TestPlannerRejectsBadInput(t *testing.T) {
	pl := NewPlanner(exampleProfile(t))
	if _, err := pl.Plan(0, element.TU32); err == nil {
		t.Error("planning 0 keys must error")
	}
	bad := &Planner{Profile: exampleProfile(t), Backend: Backend("quantum")}
	if _, err := bad.Plan(1024, element.TU32); err == nil {
		t.Error("unknown backend must error")
	}
}

// TestCalibrateDeterminismBounds runs the quick calibrator twice and
// checks the runs agree within generous bounds: microbenchmarks on a
// shared CI host jitter, but a kernel cost from one run may not be a
// multiple of the other's.
func TestCalibrateDeterminismBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration microbenchmarks in -short mode")
	}
	ctx := context.Background()
	a, err := Calibrate(ctx, Options{Quick: true, MaxP: 2})
	if err != nil {
		t.Fatalf("first calibration: %v", err)
	}
	b, err := Calibrate(ctx, Options{Quick: true, MaxP: 2})
	if err != nil {
		t.Fatalf("second calibration: %v", err)
	}
	const tol = 8.0 // generous: CI neighbours can steal most of a core
	for _, typ := range []string{"u32", "u64", "f32", "f64", "kv64"} {
		ka, kb := a.Kernels[typ], b.Kernels[typ]
		for _, pair := range [][2]float64{
			{ka.RadixPassNS, kb.RadixPassNS},
			{ka.MergeNS, kb.MergeNS},
			{ka.CompareNS, kb.CompareNS},
			{ka.CopyNS, kb.CopyNS},
		} {
			lo, hi := pair[0], pair[1]
			if lo > hi {
				lo, hi = hi, lo
			}
			if !(lo > 0) || hi/lo > tol {
				t.Errorf("%s kernels disagree beyond %gx: %v vs %v", typ, tol, pair[0], pair[1])
			}
		}
	}
	if a.Source != "calibrated" || !a.Quick {
		t.Errorf("calibrated profile mislabeled: source=%q quick=%v", a.Source, a.Quick)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("calibrated profile invalid: %v", err)
	}
	if runtime.GOMAXPROCS(0) >= 2 && a.Comm.RemapNS <= 0 {
		t.Errorf("multi-core calibration fitted RemapNS = %v, want > 0 (barriers are not free)", a.Comm.RemapNS)
	}
}

func TestFitCommRecoversKnownModel(t *testing.T) {
	// Synthesize observations from a known model; the fit must recover
	// it (no noise, exactly determined).
	want := CommCosts{RemapNS: 20000, WordNS: 2, MsgNS: 500}
	var runs []commRun
	for _, rv := range [][3]float64{
		{2, 2048, 2}, {3, 8192, 6}, {4, 1024, 12}, {6, 65536, 30}, {2, 512, 2},
	} {
		runs = append(runs, commRun{
			r: rv[0], v: rv[1], m: rv[2],
			residualNS: want.RemapNS*rv[0] + want.WordNS*rv[1] + want.MsgNS*rv[2],
		})
	}
	got, err := fitComm(runs)
	if err != nil {
		t.Fatal(err)
	}
	if !close(got.RemapNS, want.RemapNS) || !close(got.WordNS, want.WordNS) || !close(got.MsgNS, want.MsgNS) {
		t.Errorf("fit = %+v, want %+v", got, want)
	}

	// A column pulling negative must clamp to zero, not go negative.
	for i := range runs {
		runs[i].residualNS = 100*runs[i].r - 50*runs[i].m
		if runs[i].residualNS < 0 {
			runs[i].residualNS = 0
		}
	}
	got, err = fitComm(runs)
	if err != nil {
		t.Fatal(err)
	}
	if got.RemapNS < 0 || got.WordNS < 0 || got.MsgNS < 0 {
		t.Errorf("fit produced negative costs: %+v", got)
	}
}

// TestFitCommCollinearMessages feeds the fit what a MaxP 2 calibration
// observes: one message per remap, so the M column equals R. The fit
// must not fail as singular; it folds the per-message cost into the
// per-remap one, fits V exactly, and records msg_ns as unidentified.
func TestFitCommCollinearMessages(t *testing.T) {
	model := CommCosts{RemapNS: 20000, WordNS: 2, MsgNS: 500}
	var runs []commRun
	for _, rv := range [][2]float64{{2, 2048}, {3, 8192}, {4, 1024}, {6, 65536}, {2, 512}} {
		runs = append(runs, commRun{
			r: rv[0], v: rv[1], m: rv[0],
			residualNS: model.RemapNS*rv[0] + model.WordNS*rv[1] + model.MsgNS*rv[0],
		})
	}
	got, err := fitComm(runs)
	if err != nil {
		t.Fatalf("fit on M = R data: %v", err)
	}
	if !close(got.RemapNS, model.RemapNS+model.MsgNS) || !close(got.WordNS, model.WordNS) || got.MsgNS != 0 {
		t.Errorf("fit = %+v, want remap %v, word %v, msg 0", got, model.RemapNS+model.MsgNS, model.WordNS)
	}
	if len(got.Unidentified) != 1 || got.Unidentified[0] != "msg_ns" {
		t.Errorf("unidentified = %v, want [msg_ns]", got.Unidentified)
	}
	full, err := fitComm([]commRun{
		{r: 2, v: 2048, m: 2}, {r: 3, v: 8192, m: 6}, {r: 4, v: 1024, m: 12},
	})
	if err != nil || full.Unidentified != nil {
		t.Errorf("independent columns: unidentified = %v, err = %v", full.Unidentified, err)
	}
}

func mustRank(t *testing.T, pl *Planner, total int, typ element.Type) []Plan {
	t.Helper()
	r, err := pl.Rank(total, typ)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func findPlan(plans []Plan, alg string, p int, strat string) *Plan {
	for i := range plans {
		if plans[i].Algorithm == alg && plans[i].Processors == p && plans[i].Strategy == strat {
			return &plans[i]
		}
	}
	return nil
}

func close(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}
