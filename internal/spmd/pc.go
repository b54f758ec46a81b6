package spmd

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parbitonic/internal/obs"
	"parbitonic/internal/trace"
)

// PC is the element-independent core of a processor: identity, clock,
// stats, routing scratch and observability state. It is the type every
// Charger is written against — nothing a charger needs depends on the
// element type, so one charger implementation serves every EngineOf
// instantiation. The generic ProcOf[E] embeds a PC, promoting its
// fields and methods onto the processor the algorithm bodies see.
type PC struct {
	ID int // processor index in [0, P)

	// Clock is the processor's accumulated time in µs: virtual model
	// time under the simulator, measured wall time under the native
	// backend. Barriers advance it to the round maximum either way.
	Clock float64
	Stats Stats // counters and per-phase time accumulated this run

	st *state

	// ops reaches back into the generic processor for the few
	// element-touching operations the non-generic world needs (the
	// fault injector's key corruption); set once at engine construction.
	ops procOps

	// Per-processor routing scratch, reused across remap rounds.
	nl  []int32
	grp []int // destination-group scratch, rewritten per round

	// Observability state, touched only by the owning goroutine: spans
	// buffer between barrier flushes, and the precomputed pprof label
	// contexts (one per phase tag; nil when profiling is off).
	obsBuf   []obs.Span
	labelCtx []context.Context
	curTag   int
}

// procOps is the seam through which element-independent code touches a
// processor's generic data: ProcOf[E] implements it, PC carries it, and
// the fault injector's Corrupt plan uses it without knowing E.
type procOps interface {
	// DataLen returns the length of the processor's local data.
	DataLen() int
	// CorruptKey flips the top key bit of local element i, the
	// type-generic form of the injector's single-bit corruption.
	CorruptKey(i int)
}

// state is the element-independent half of an engine: processor count,
// cost policy, the exchange barrier and the abort machinery. EngineOf
// embeds a *state; PC points at the same one, which is how chargers
// and the barrier serve every element instantiation with one compiled
// body.
type state struct {
	p      int
	long   bool
	shared bool
	costs  CostModel
	charge Charger
	rec    *trace.Recorder
	sink   obs.Sink          // nil = observability disabled
	labels map[string]string // static telemetry labels
	bar    *barrier

	// words is the element width in 32-bit words and keyScale the key
	// width in 32-bit units — the two factors the charge helpers scale
	// by. Both are 1 for uint32, keeping the paper's model unchanged.
	words    int
	keyScale int

	// aborting flips to true the moment a run starts failing (processor
	// panic or context cancellation); blocked processors are unwound via
	// the poisoned barrier and running ones notice at their next phase
	// boundary with a single atomic load.
	aborting atomic.Bool
	abortErr error // first failure cause; written under abortMu
	abortMu  sync.Mutex
}

// ---- per-processor runtime services ----

// P returns the runtime's processor count.
func (p *PC) P() int { return p.st.p }

// Costs exposes the runtime's computation cost model.
func (p *PC) Costs() CostModel { return p.st.costs }

// Long reports whether the runtime uses long messages.
func (p *PC) Long() bool { return p.st.long }

// SharedMem reports whether the processors share one address space
// (EngineConfig.Shared): the capability gate for the zero-copy gather
// remap. False on the simulator, whose distributed-memory cost model
// must keep seeing the packed pipeline.
func (p *PC) SharedMem() bool { return p.st.shared }

// Words returns the engine's element width in 32-bit words (1 for
// uint32): the factor chargers scale memory-bound costs by.
func (p *PC) Words() int { return p.st.words }

// Aborting reports whether the current run is being torn down (a peer
// panicked or the context was canceled). It is a single atomic load —
// cheap enough for long local-computation loops to poll as a
// cooperative cancellation point; collectives check it implicitly.
func (p *PC) Aborting() bool { return p.st.aborting.Load() }

// checkAbort unwinds the calling processor if the run is aborting. The
// fast path is one atomic load.
func (p *PC) checkAbort() {
	if p.st.aborting.Load() {
		panic(poisonPanic{})
	}
}

// Barrier synchronizes all processors and advances every clock to the
// maximum (the runtime is bulk-synchronous between phases, like the
// barrier-separated phases of the Split-C implementation). If the run
// is aborting (peer panic, canceled context), Barrier unwinds instead
// of blocking; the abort check is a single atomic load.
func (p *PC) Barrier() {
	p.checkAbort()
	p.st.bar.maxClock(p)
}

// DataLen returns the processor's current local element count, through
// the element-independent seam.
func (p *PC) DataLen() int { return p.ops.DataLen() }

// CorruptKey flips the top key bit of local element i, through the
// element-independent seam. For uint32 data this is exactly
// Data[i] ^= 1<<31.
func (p *PC) CorruptKey(i int) { p.ops.CorruptKey(i) }

// ChargeCompute accounts for local computation whose modelled cost is
// t model µs.
func (p *PC) ChargeCompute(t float64) {
	p.checkAbort()
	p.st.charge.Compute(p, t)
}

// ChargeRadixSort charges a full local radix sort of n elements. The
// pass count scales with the key width (RadixPasses is calibrated for
// 32-bit keys) and the per-pass movement with the element's word
// width, so a uint32 charge is exactly the paper's.
func (p *PC) ChargeRadixSort(n int) {
	p.checkAbort()
	c := p.st.costs
	passes := c.RadixPass * float64(c.RadixPasses*p.st.keyScale)
	w := n * p.st.words
	p.st.charge.Compute(p, passes*float64(w)*c.CacheFactor(w))
}

// ChargeMerge charges linear merge work over n elements (bitonic merge
// sort, two-way or p-way merging — all O(n) routines of Chapter 4),
// scaled by the element's word width.
func (p *PC) ChargeMerge(n int) {
	p.checkAbort()
	c := p.st.costs
	w := n * p.st.words
	p.st.charge.Compute(p, c.Merge*float64(w)*c.CacheFactor(w))
}

// ChargeCompareExchange charges one simulated network step over n
// elements, scaled by the element's word width.
func (p *PC) ChargeCompareExchange(n int) {
	p.checkAbort()
	c := p.st.costs
	w := n * p.st.words
	p.st.charge.Compute(p, c.CompareExchange*float64(w)*c.CacheFactor(w))
}

// nlScratch returns the per-processor unpack table sized for msgLen.
func (p *PC) nlScratch(msgLen int) []int32 {
	if cap(p.nl) < msgLen {
		p.nl = make([]int32, msgLen)
	}
	return p.nl[:msgLen]
}

// ---- observability services ----

// obsPhase maps the trace recorder's phase letters onto the
// observability layer's dense phase enum.
func obsPhase(ph trace.Phase) obs.Phase {
	switch ph {
	case trace.Compute:
		return obs.PhaseCompute
	case trace.Pack:
		return obs.PhasePack
	case trace.Transfer:
		return obs.PhaseTransfer
	case trace.Unpack:
		return obs.PhaseUnpack
	case trace.Wait:
		return obs.PhaseWait
	}
	return obs.PhaseAbort
}

// Span records one completed phase span [start, end) on the
// processor's backend clock. It feeds both consumers at once: the
// trace recorder (if configured) for timeline rendering, and the
// observability sink (if configured) via the processor's private span
// buffer, stamped with the current remap round and a wall-clock
// timestamp. Chargers call it at every phase boundary; with neither
// consumer configured it is two pointer checks.
func (p *PC) Span(ph trace.Phase, start, end float64) {
	if r := p.st.rec; r != nil {
		r.Add(trace.Event{Proc: p.ID, Phase: ph, Start: start, End: end})
	}
	if p.st.sink != nil && end > start {
		p.obsBuf = append(p.obsBuf, obs.Span{
			Proc:  p.ID,
			Round: p.Stats.Remaps,
			Phase: obsPhase(ph),
			Start: start,
			End:   end,
			Wall:  time.Now().UnixNano(),
		})
	}
}

// flushObs hands the processor's buffered spans to the sink. Called at
// every barrier release (each processor flushes its own buffer, so the
// sink's lock is taken once per processor per barrier, never per span)
// and once more when the run ends.
func (p *PC) flushObs() {
	if p.st.sink == nil || len(p.obsBuf) == 0 {
		return
	}
	p.st.sink.FlushSpans(p.ID, p.obsBuf)
	p.obsBuf = p.obsBuf[:0]
}

// abortSpan records a zero-advance abort marker when the processor
// unwinds, so aborted work is visible in the span stream.
func (p *PC) abortSpan() {
	if p.st.sink == nil {
		return
	}
	p.obsBuf = append(p.obsBuf, obs.Span{
		Proc:  p.ID,
		Round: p.Stats.Remaps,
		Phase: obs.PhaseAbort,
		Start: p.Clock,
		End:   p.Clock,
		Wall:  time.Now().UnixNano(),
	})
}

// phaseTagNames order must match the obs.Phase constants; abort never
// becomes a goroutine label.
var phaseTagNames = [...]string{"compute", "pack", "transfer", "unpack", "wait"}

// initObs prepares the processor's observability state at run start:
// the span buffer is cleared and, when a sink is configured, one pprof
// label context per phase is prebuilt (proc, phase, plus the engine's
// static labels) and the goroutine labeled as computing — from here on
// a phase change is a single SetGoroutineLabels call with no
// allocation.
func (p *PC) initObs() {
	p.obsBuf = p.obsBuf[:0]
	if p.st.sink == nil {
		p.labelCtx = nil
		return
	}
	if p.labelCtx == nil {
		kv := make([]string, 0, 2*(2+len(p.st.labels)))
		kv = append(kv, "proc", strconv.Itoa(p.ID))
		for k, v := range p.st.labels {
			kv = append(kv, k, v)
		}
		p.labelCtx = make([]context.Context, len(phaseTagNames))
		for i, name := range phaseTagNames {
			args := append(kv[:len(kv):len(kv)], "phase", name)
			p.labelCtx[i] = pprof.WithLabels(context.Background(), pprof.Labels(args...))
		}
	}
	p.tag(int(obs.PhaseCompute))
}

// tag switches the goroutine's pprof phase label; no-op when profiling
// is off.
func (p *PC) tag(t int) {
	if p.labelCtx == nil {
		return
	}
	p.curTag = t
	pprof.SetGoroutineLabels(p.labelCtx[t])
}
