package tune

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"parbitonic/element"
	"parbitonic/internal/bitseq"
	"parbitonic/internal/core"
	"parbitonic/internal/intbits"
	"parbitonic/internal/localsort"
	"parbitonic/internal/native"
	"parbitonic/internal/spmd"
	"parbitonic/internal/workload"
)

// Options configures a calibration run.
type Options struct {
	// Quick trades accuracy for speed: smaller inputs, fewer
	// repetitions. Meant for CI smoke runs; interactive calibration
	// should leave it false.
	Quick bool
	// Seed seeds the deterministic workload generator; 0 means 1.
	Seed uint64
	// MaxP caps the processor counts the communication fit runs at;
	// 0 means min(GOMAXPROCS, 8).
	MaxP int
}

// Calibrate microbenchmarks the host and returns a machine profile:
// per-element kernel costs for every element type (radix pass, linear
// merge, compare-exchange sweep, bulk copy — measured with warmup and
// trimmed means) and the fitted communication costs of the native
// backend's exchange path (a least-squares fit of makespan minus
// measured busy time against the run's R/V/M counters, the §3.4
// metrics). The context aborts the communication runs; kernel
// microbenchmarks check it between measurements.
func Calibrate(ctx context.Context, opts Options) (*Profile, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	n, reps := 1<<16, 7
	if opts.Quick {
		n, reps = 1<<14, 3
	}

	p := &Profile{
		Schema:    ProfileSchema,
		Version:   ProfileVersion,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Quick:     opts.Quick,
		Source:    "calibrated",
		Kernels:   make(map[string]KernelCosts),
	}
	hostStamp(p)

	for _, t := range element.Types() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var k KernelCosts
		var err error
		switch t {
		case element.TU32:
			k, err = kernelCosts[uint32](ctx, n, reps, opts.Seed)
		case element.TU64:
			k, err = kernelCosts[uint64](ctx, n, reps, opts.Seed)
		case element.TF32:
			k, err = kernelCosts[float32](ctx, n, reps, opts.Seed)
		case element.TF64:
			k, err = kernelCosts[float64](ctx, n, reps, opts.Seed)
		case element.TKV64:
			k, err = kernelCosts[element.KV64](ctx, n, reps, opts.Seed)
		}
		if err != nil {
			return nil, err
		}
		p.Kernels[t.String()] = k
	}

	comm, err := calibrateComm(ctx, opts)
	if err != nil {
		return nil, err
	}
	p.Comm = comm

	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("tune: calibration produced an invalid profile: %w", err)
	}
	return p, nil
}

// kernelCosts measures the four local kernels for element type E over
// n-element inputs, reps times each, returning trimmed means in
// nanoseconds per element.
func kernelCosts[E element.Elem](ctx context.Context, n, reps int, seed uint64) (KernelCosts, error) {
	base := workload.Elems[E](workload.FullRange, n, seed)
	buf := make([]E, n)
	dst := make([]E, n)

	// Sorted ascending halves for the merge kernel; rebuilt fresh per
	// measurement is unnecessary (MergeTwo does not mutate its inputs).
	a := append([]E(nil), base[:n/2]...)
	b := append([]E(nil), base[n/2:]...)
	localsort.RadixSort(a)
	localsort.RadixSort(b)

	// A bitonic sequence for the compare-exchange kernel: ascending
	// first half then descending second half. Split mutates, so it is
	// rebuilt from this template before every measurement.
	bitonic := make([]E, n)
	copy(bitonic, a)
	for i, v := range b {
		bitonic[n-1-i] = v
	}

	passes := localsort.RadixPassesOf[E]()
	radix, err := measure(ctx, reps, func() {
		copy(buf, base)
	}, func() {
		localsort.RadixSort(buf)
	})
	if err != nil {
		return KernelCosts{}, err
	}
	merge, err := measure(ctx, reps, nil, func() {
		localsort.MergeTwo(dst, a, b, true)
	})
	if err != nil {
		return KernelCosts{}, err
	}
	compare, err := measure(ctx, reps, func() {
		copy(buf, bitonic)
	}, func() {
		bitseq.Split(buf)
	})
	if err != nil {
		return KernelCosts{}, err
	}
	cp, err := measure(ctx, reps, nil, func() {
		copy(dst, base)
	})
	if err != nil {
		return KernelCosts{}, err
	}

	k := KernelCosts{
		RadixPassNS: radix / float64(n) / float64(passes),
		MergeNS:     merge / float64(n),
		CompareNS:   compare / float64(n),
		CopyNS:      cp / float64(n),
	}
	// Clock-resolution floor: a pass can measure as ~0 on very fast
	// hosts with quick sizes; a zero cost would make the planner treat
	// the kernel as free.
	const floorNS = 0.01
	if k.RadixPassNS < floorNS {
		k.RadixPassNS = floorNS
	}
	if k.MergeNS < floorNS {
		k.MergeNS = floorNS
	}
	if k.CompareNS < floorNS {
		k.CompareNS = floorNS
	}
	if k.CopyNS < floorNS {
		k.CopyNS = floorNS
	}
	return k, nil
}

// measure times fn reps times (plus one warmup), running setup
// untimed before each, and returns the trimmed-mean duration in
// nanoseconds: with five or more reps the fastest and slowest are
// dropped, otherwise the median is used.
func measure(ctx context.Context, reps int, setup, fn func()) (float64, error) {
	if setup != nil {
		setup()
	}
	fn() // warmup
	samples := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if setup != nil {
			setup()
		}
		t0 := time.Now()
		fn()
		samples = append(samples, float64(time.Since(t0).Nanoseconds()))
	}
	sort.Float64s(samples)
	if len(samples) >= 5 {
		samples = samples[1 : len(samples)-1]
	} else if len(samples) >= 3 {
		samples = samples[len(samples)/2 : len(samples)/2+1]
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	return sum / float64(len(samples)), nil
}

// commRun is one observation for the communication fit: the §3.4
// counters of a measured native run and its unexplained time (makespan
// minus mean per-processor busy time), in nanoseconds.
type commRun struct {
	r, v, m    float64
	residualNS float64
}

// calibrateComm fits CommCosts from measured native runs. For several
// (P, n, algorithm) shapes it runs the real parallel sort, reads the
// measured R/V/M counters and per-phase busy times, and fits
//
//	makespan − busy ≈ RemapNS·R + WordNS·V + MsgNS·M
//
// by non-negative least squares. On a shared-memory host the residual
// is barrier synchronization plus exchange hand-off — the effective
// (L+2o−g), G and (g−G) of this machine's "network". A single-core
// host cannot run the fit and gets the fallback communication costs.
func calibrateComm(ctx context.Context, opts Options) (CommCosts, error) {
	maxP := opts.MaxP
	if maxP <= 0 {
		maxP = runtime.GOMAXPROCS(0)
		if maxP > 8 {
			maxP = 8
		}
	}
	maxP = intbits.CeilPow2(maxP)
	for maxP > runtime.GOMAXPROCS(0) {
		maxP /= 2
	}
	if maxP < 2 {
		return Fallback().Comm, nil
	}

	sizes := []int{1 << 11, 1 << 13}
	runReps := 3
	if opts.Quick {
		sizes = []int{1 << 10, 1 << 12}
		runReps = 2
	}

	var runs []commRun
	for p := 2; p <= maxP; p *= 2 {
		eng, err := native.NewOf[uint32](native.Config{P: p})
		if err != nil {
			return CommCosts{}, err
		}
		for _, n := range sizes {
			for _, alg := range []core.Algorithm{core.Smart, core.CyclicBlocked} {
				res, err := bestOf(ctx, eng, p, n, alg, runReps, opts.Seed)
				if err != nil {
					return CommCosts{}, err
				}
				busy := res.Mean.Total()
				residual := res.Time - busy
				if residual < 0 {
					residual = 0
				}
				runs = append(runs, commRun{
					r:          float64(res.Mean.Remaps),
					v:          float64(res.Mean.VolumeSent),
					m:          float64(res.Mean.MessagesSent),
					residualNS: residual * 1e3, // µs → ns
				})
			}
		}
	}
	c, err := fitComm(runs)
	if err != nil {
		return CommCosts{}, err
	}
	return c, nil
}

// bestOf runs the (p, n, alg) native sort reps times and returns the
// fastest run — the observation closest to the machine's cost floor.
func bestOf(ctx context.Context, eng *native.EngineOf[uint32], p, n int, alg core.Algorithm, reps int, seed uint64) (spmd.Result, error) {
	copts := core.Options{Algorithm: alg}
	if alg == core.Smart {
		copts.Fused = true
		lgn, lgP := intbits.Log2(n), intbits.Log2(p)
		if lgP*(lgP+1)/2 <= lgn {
			copts.Compute = core.FullSort
		}
	}
	var best spmd.Result
	for i := 0; i < reps; i++ {
		data := workload.PerProcOf[uint32](workload.FullRange, p, n, seed+uint64(i))
		res, err := core.SortContext(ctx, eng, data, copts)
		if err != nil {
			return spmd.Result{}, err
		}
		if i == 0 || res.Time < best.Time {
			best = res
		}
	}
	return best, nil
}

// fitComm solves the three-parameter non-negative least-squares
// problem residual ≈ a·R + b·V + c·M over the observed runs. It is
// rank-aware: a column that is (numerically) a linear combination of
// the columns before it in R, V, M order cannot be told apart from
// them, so it is fixed at zero and named in Unidentified instead of
// making the system singular. The rest is a tiny active-set NNLS: the
// unconstrained normal equations first, then columns whose coefficient
// comes out negative are dropped (clamped to zero) and the rest refit.
func fitComm(runs []commRun) (CommCosts, error) {
	if len(runs) < 3 {
		return CommCosts{}, fmt.Errorf("tune: %d communication observations, need >= 3", len(runs))
	}
	names := [3]string{"remap_ns", "word_ns", "msg_ns"}
	active := identifiable(runs)
	var unidentified []string
	for i, a := range active {
		if !a {
			unidentified = append(unidentified, names[i])
		}
	}
	for iter := 0; iter < 4; iter++ {
		coef, ok := solveLSQ(runs, active)
		if !ok {
			return CommCosts{}, fmt.Errorf("tune: singular communication fit")
		}
		clamped := false
		for i, v := range coef {
			if active[i] && v < 0 {
				active[i] = false
				clamped = true
			}
		}
		if !clamped {
			return CommCosts{RemapNS: coef[0], WordNS: coef[1], MsgNS: coef[2], Unidentified: unidentified}, nil
		}
	}
	return CommCosts{}, fmt.Errorf("tune: communication fit did not converge")
}

// collinearTol is the relative residual below which a design column
// counts as a combination of the columns before it.
const collinearTol = 1e-9

// identifiable runs Gram-Schmidt over the R, V, M design columns in
// that order and reports which are linearly independent of the ones
// before them (an all-zero column is not).
func identifiable(runs []commRun) []bool {
	cols := make([][]float64, 3)
	for i := range cols {
		cols[i] = make([]float64, len(runs))
	}
	for j, r := range runs {
		cols[0][j], cols[1][j], cols[2][j] = r.r, r.v, r.m
	}
	active := make([]bool, 3)
	var basis [][]float64 // orthonormal
	for i, col := range cols {
		norm := math.Sqrt(dot(col, col))
		if norm == 0 {
			continue
		}
		res := append([]float64(nil), col...)
		for _, q := range basis {
			d := dot(res, q)
			for j := range res {
				res[j] -= d * q[j]
			}
		}
		rn := math.Sqrt(dot(res, res))
		if rn <= collinearTol*norm {
			continue
		}
		for j := range res {
			res[j] /= rn
		}
		basis = append(basis, res)
		active[i] = true
	}
	return active
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// solveLSQ solves the normal equations of the least-squares fit over
// the active columns; inactive columns get coefficient 0.
func solveLSQ(runs []commRun, active []bool) ([3]float64, bool) {
	var cols []int
	for i, a := range active {
		if a {
			cols = append(cols, i)
		}
	}
	k := len(cols)
	var out [3]float64
	if k == 0 {
		return out, true
	}
	// Build AtA (k×k) and Atb (k).
	ata := make([][]float64, k)
	atb := make([]float64, k)
	for i := range ata {
		ata[i] = make([]float64, k)
	}
	for _, r := range runs {
		x := [3]float64{r.r, r.v, r.m}
		for i, ci := range cols {
			for j, cj := range cols {
				ata[i][j] += x[ci] * x[cj]
			}
			atb[i] += x[ci] * r.residualNS
		}
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < k; col++ {
		pivot := col
		for row := col + 1; row < k; row++ {
			if abs(ata[row][col]) > abs(ata[pivot][col]) {
				pivot = row
			}
		}
		if abs(ata[pivot][col]) < 1e-12 {
			return out, false
		}
		ata[col], ata[pivot] = ata[pivot], ata[col]
		atb[col], atb[pivot] = atb[pivot], atb[col]
		for row := col + 1; row < k; row++ {
			f := ata[row][col] / ata[col][col]
			for c := col; c < k; c++ {
				ata[row][c] -= f * ata[col][c]
			}
			atb[row] -= f * atb[col]
		}
	}
	sol := make([]float64, k)
	for row := k - 1; row >= 0; row-- {
		s := atb[row]
		for c := row + 1; c < k; c++ {
			s -= ata[row][c] * sol[c]
		}
		sol[row] = s / ata[row][row]
	}
	for i, ci := range cols {
		out[ci] = sol[i]
	}
	return out, true
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
