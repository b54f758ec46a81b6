package serve

import (
	"context"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/obs"
	"parbitonic/internal/resilience"
)

// runBatch executes one batch on a pooled engine and delivers every
// member's result. slab is the worker's recycled staging buffer.
//
// Solo requests (len(batch) == 1) run untagged under the request's own
// context, riding the runtime's fail-safe cancellation directly.
// Multi-request batches are tag-encoded (see packBatch), run under a
// joint context that aborts only when every member has given up, and
// sliced back out with splitBatch — which copies results out of the
// slab, so nothing a caller holds aliases pooled memory.
func (s *ServerOf[E]) runBatch(batch []*request[E], slab *[]E) {
	s.m.observeBatch(len(batch))
	if len(batch) == 1 {
		s.runSolo(batch[0])
		return
	}

	ctx, stop := s.jointContext(batch)
	defer stop()

	total := 0
	ids := make([]string, len(batch))
	for i, r := range batch {
		total += len(r.keys)
		ids[i] = r.id
	}
	// The joint context derives from the SERVER's context, not the
	// members' — so the member request IDs must be re-attached for the
	// engine run's telemetry to carry its owners.
	ctx = obs.WithRequestIDs(ctx, ids)
	reqs := strings.Join(ids, ",")
	bid := s.m.batchStart(ids, total)
	defer s.m.batchEnd(bid)

	shift := tagShift[E](len(batch))
	ecfg, padded, plan, perr := s.planFor(total)
	if perr != nil {
		for _, r := range batch {
			r.finish(s.m, nil, perr)
		}
		return
	}
	if cap(*slab) < padded {
		*slab = make([]E, padded)
	}
	buf := (*slab)[:padded]
	packBatch(buf, batch, shift, total)
	for _, r := range batch {
		r.tr.advance(obs.StageBatch)
	}

	err := s.runPooled(ctx, ecfg, padded, plan, func(eng *parbitonic.EngineOf[E]) error {
		_, err := eng.SortContext(ctx, buf)
		return err
	}, func() { packBatch(buf, batch, shift, total) },
		func(st obs.Stage, d time.Duration) {
			for _, r := range batch {
				r.tr.add(st, d)
			}
		}, reqs)
	// Engine and retry time were folded in via the note callback; move
	// every member's hop mark past the run so the next advance charges
	// only the copy-out.
	for _, r := range batch {
		r.tr.reset()
	}
	if err != nil {
		for _, r := range batch {
			r.finish(s.m, nil, err)
		}
		return
	}
	splitBatch(buf, batch, shift, s.m)
}

// runSolo sorts one request on a pooled engine under its own context.
func (s *ServerOf[E]) runSolo(r *request[E]) {
	bid := s.m.batchStart([]string{r.id}, len(r.keys))
	defer s.m.batchEnd(bid)
	out := append([]E(nil), r.keys...)
	ecfg, padded, plan, perr := s.planFor(len(out))
	if perr != nil {
		r.finish(s.m, nil, perr)
		return
	}
	r.tr.advance(obs.StageBatch)
	err := s.runPooled(r.ctx, ecfg, padded, plan, func(eng *parbitonic.EngineOf[E]) error {
		_, err := eng.SortPaddedContext(r.ctx, out)
		return err
	}, func() { copy(out, r.keys) },
		func(st obs.Stage, d time.Duration) { r.tr.add(st, d) }, r.id)
	r.tr.reset()
	if err != nil {
		r.finish(s.m, nil, err)
		return
	}
	r.tr.advance(obs.StageCopyOut)
	r.finish(s.m, out, nil)
}

// runPooled is the retrying engine-run loop every batch and solo run
// goes through. Each attempt checks an engine out of the pool,
// executes run, and hands the engine back with its health verdict —
// a panicked or verify-failing engine is quarantined (destroyed),
// never recycled — then feeds the outcome to the circuit breaker. A
// transient failure is re-attempted under the server's retry policy:
// a jittered exponential backoff that never sleeps past ctx's
// deadline budget, with repack restoring the input buffer first (a
// failed run leaves its contents unspecified).
// note reports measured intervals back to the batch's stage trackers —
// engine attempt wall time, retry backoff sleeps, and repack time
// (charged to the batch stage) — and reqs carries the owning request
// ID(s) for the retry/quarantine events.
//
// ecfg is the engine configuration this run pools under — the fixed
// Config.Engine, or the plan-resolved shape under Engine.Auto, in
// which case plan carries the autotuner decision: a successful native
// run feeds measured/predicted into the plan-drift histogram, so
// mispredictions are visible per server. Quarantine, eviction and the
// circuit breaker act on the outcome exactly as for a fixed shape —
// an unhealthy plan-chosen engine is destroyed, its shape's idle set
// evicted on a streak, and persistent failures open the breaker
// regardless of which plan picked the shape.
func (s *ServerOf[E]) runPooled(ctx context.Context, ecfg parbitonic.Config, padded int, plan *parbitonic.Plan, run func(*parbitonic.EngineOf[E]) error, repack func(), note func(obs.Stage, time.Duration), reqs string) error {
	for attempt := 0; ; attempt++ {
		eng, err := s.pool.Get(ecfg, padded)
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = run(eng)
		elapsed := time.Since(t0)
		note(obs.StageEngine, elapsed)
		s.m.observeEngineRun(elapsed)
		healthy := resilience.EngineHealthy(err)
		s.pool.Put(eng, padded, healthy)
		if !healthy {
			s.emit(obs.EventQuarantine, err.Error(), reqs)
		}
		s.recordBreaker(err, healthy)
		if err == nil {
			if plan != nil && ecfg.Backend == parbitonic.Native && plan.PredictedUS > 0 {
				// Simulated plans predict model time, not wall time —
				// only native runs have a comparable measurement.
				s.m.planObserve(float64(elapsed) / float64(time.Microsecond) / plan.PredictedUS)
			}
			return nil
		}
		d, ok := s.policy.ShouldRetry(ctx, attempt, err)
		if !ok {
			return err
		}
		s.m.retry()
		s.emit(obs.EventRetry, err.Error(), reqs)
		t1 := time.Now()
		serr := resilience.Sleep(ctx, d)
		note(obs.StageRetry, time.Since(t1))
		if serr != nil {
			return err
		}
		t2 := time.Now()
		repack()
		note(obs.StageBatch, time.Since(t2))
	}
}

// recordBreaker feeds one engine-run outcome to the circuit breaker.
// Only outcomes that say something about backend health count: success
// and engine-quarantining failures. Caller-driven aborts (cancel,
// deadline) are silent — a client hanging up must never open the
// breaker.
func (s *ServerOf[E]) recordBreaker(err error, healthy bool) {
	if s.breaker == nil {
		return
	}
	if err == nil {
		s.breaker.Record(false)
	} else if !healthy {
		s.breaker.Record(true)
	}
}

// jointContext derives the context a multi-request batch runs under:
// it is canceled when the server closes, when every member's context
// is done (no one is left to collect the result), or — when every
// member carries a deadline — at the latest of those deadlines.
func (s *ServerOf[E]) jointContext(batch []*request[E]) (context.Context, func()) {
	base := s.ctx
	latest := time.Time{}
	allDeadlines := true
	for _, r := range batch {
		d, ok := r.ctx.Deadline()
		if !ok {
			allDeadlines = false
			break
		}
		if d.After(latest) {
			latest = d
		}
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if allDeadlines {
		ctx, cancel = context.WithDeadline(base, latest)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	remaining := int32(len(batch))
	stops := make([]func() bool, 0, len(batch))
	for _, r := range batch {
		stops = append(stops, context.AfterFunc(r.ctx, func() {
			if atomic.AddInt32(&remaining, -1) == 0 {
				cancel()
			}
		}))
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}

// tagShift returns the bit position the request tag occupies for a
// k-request batch: tags need b = bits.Len(k-1) high bits of the key
// image, keys keep the low KeyBits-b. The dispatcher's fits()
// guarantees every member's keys clear the shift.
func tagShift[E element.Elem](k int) uint {
	return uint(element.KeyBits[E]()) - uint(bits.Len(uint(k-1)))
}

// packBatch writes the tag-encoded concatenation of the batch into
// buf[:total] — request j's key x becomes j<<shift | x (for records,
// the tag lands in the key word; the payload travels untouched) — and
// fills buf[total:] with maximal padding. Because tags occupy the high
// bits, sorting buf groups it by request in submission order, each
// group internally sorted; padding (all-ones key) sorts to the very
// end (the dispatcher guarantees it is ≥ every tagged value — strictly
// greater for records — and scalar ties with the last group are
// value-identical and therefore interchangeable). Only integer-image
// types reach here; the dispatcher never batches floats.
func packBatch[E element.Elem](buf []E, batch []*request[E], shift uint, total int) {
	switch element.TypeOf[E]() {
	case element.TU32:
		out := element.Cast[uint32](buf)
		pos := 0
		for j, r := range batch {
			tag := uint32(j) << shift
			for _, k := range element.Cast[uint32](r.keys) {
				out[pos] = tag | k
				pos++
			}
		}
	case element.TU64:
		out := element.Cast[uint64](buf)
		pos := 0
		for j, r := range batch {
			tag := uint64(j) << shift
			for _, k := range element.Cast[uint64](r.keys) {
				out[pos] = tag | k
				pos++
			}
		}
	case element.TKV64:
		out := element.Cast[element.KV64](buf)
		pos := 0
		for j, r := range batch {
			tag := uint64(j) << shift
			for _, k := range element.Cast[element.KV64](r.keys) {
				out[pos] = element.KV64{K: tag | k.K, V: k.V}
				pos++
			}
		}
	default:
		panic("serve: packBatch on an untaggable element type")
	}
	pad := element.Max[E]()
	for i := total; i < len(buf); i++ {
		buf[i] = pad
	}
}

// splitBatch slices the sorted tagged buffer back into per-request
// results: request j's sorted keys are the len(r.keys) entries
// starting at the prefix sum of earlier members, with the tag masked
// off the key image (record payloads pass through untouched). Results
// are COPIED out — buf is pooled worker memory and must not escape
// (see TestBatchNoRetention).
func splitBatch[E element.Elem](buf []E, batch []*request[E], shift uint, m *Metrics) {
	switch element.TypeOf[E]() {
	case element.TU32:
		in := element.Cast[uint32](buf)
		mask := uint32(1)<<shift - 1
		pos := 0
		for _, r := range batch {
			out := make([]E, len(r.keys))
			o := element.Cast[uint32](out)
			for i := range o {
				o[i] = in[pos+i] & mask
			}
			pos += len(r.keys)
			r.tr.advance(obs.StageCopyOut)
			r.finish(m, out, nil)
		}
	case element.TU64:
		in := element.Cast[uint64](buf)
		mask := uint64(1)<<shift - 1
		pos := 0
		for _, r := range batch {
			out := make([]E, len(r.keys))
			o := element.Cast[uint64](out)
			for i := range o {
				o[i] = in[pos+i] & mask
			}
			pos += len(r.keys)
			r.tr.advance(obs.StageCopyOut)
			r.finish(m, out, nil)
		}
	case element.TKV64:
		in := element.Cast[element.KV64](buf)
		mask := uint64(1)<<shift - 1
		pos := 0
		for _, r := range batch {
			out := make([]E, len(r.keys))
			o := element.Cast[element.KV64](out)
			for i := range o {
				o[i] = element.KV64{K: in[pos+i].K & mask, V: in[pos+i].V}
			}
			pos += len(r.keys)
			r.tr.advance(obs.StageCopyOut)
			r.finish(m, out, nil)
		}
	default:
		panic("serve: splitBatch on an untaggable element type")
	}
}
