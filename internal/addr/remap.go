package addr

import (
	"fmt"
	"math/bits"
	"sync"
)

// bitMove describes moving bit `from` of a source word to bit `to` of a
// destination word.
type bitMove struct{ from, to int }

func gather(word int, moves []bitMove) int {
	out := 0
	for _, m := range moves {
		out |= (word >> uint(m.from) & 1) << uint(m.to)
	}
	return out
}

// RemapPlan precomputes everything needed to remap data from layout Old
// to layout New with long messages: destination processors, pack offsets
// (the "pack mask" of Figure 3.18) and unpack positions (the "unpack
// mask" of Figure 3.19). Because all layouts are bit permutations the
// plan is a set of bit-routing tables independent of the data.
type RemapPlan struct {
	Old, New *Layout // source and destination layouts

	// Changed is N_BitsChanged of Lemma 3: the number of absolute-address
	// bits that are local under Old but select the processor under New.
	Changed int

	// MsgLen is the number of elements each processor sends to (and
	// receives from) every other member of its communication group:
	// n / 2^Changed (Lemma 4).
	MsgLen int

	destFromP []bitMove // dest proc bits sourced from the sender's proc number
	destFromL []bitMove // dest proc bits sourced from the sender's local address
	offFromL  []bitMove // message offset bits sourced from the sender's local address
	nlFromM   []bitMove // new local bits sourced from the message offset
	nlFromP   []bitMove // new local bits sourced from the sender's proc number

	// fieldLo is the low end of the destination field (see DestField),
	// or -1 when the destination bits are not one contiguous field.
	fieldLo int

	// Lazily built unpack table: the m-dependent part of UnpackLocal
	// is processor-independent, so one table per plan serves every
	// processor. Built on first use; safe for concurrent readers.
	lutOnce sync.Once
	nlLut   []int32 // [MsgLen] new-local bits contributed by m
	hasLuts bool

	// Lazily built inverse (gather) tables for the shared-memory
	// zero-copy remap: for each NEW local address they name the source
	// the element comes from. Processor-independent like the unpack
	// table; see GatherLuts.
	gatherOnce sync.Once
	groupLut   []int32 // [n] sender-group index of new local address i
	srcLut     []int32 // [n] old-local bits of i contributed by the message offset
	hasGather  bool
}

// lutMaxEntries bounds LUT memory: plans over more local keys than this
// fall back to per-call bit gathering.
const lutMaxEntries = 1 << 22

func (p *RemapPlan) luts() bool {
	p.lutOnce.Do(func() {
		if p.Old.LocalN() > lutMaxEntries {
			return
		}
		p.nlLut = make([]int32, p.MsgLen)
		for m := 0; m < p.MsgLen; m++ {
			p.nlLut[m] = int32(gather(m, p.nlFromM))
		}
		p.hasLuts = true
	})
	return p.hasLuts
}

// DestField reports whether the plan's pack mask is a bit field of the
// sender's local address: the destination bits are the contiguous
// field [lo, lo+Changed) of l, in group order, and the message offset
// is the remaining bits of l in order. Then local address l goes to
// group member g = (l>>lo) & (GroupSize()-1) — the g-th entry of
// Dests — at offset FieldOffset(l, lo, Changed), so routing is a few
// shifts and masks and needs no table. Every remap of the usual-regime
// smart schedule, and the blocked<->cyclic remaps, has such a field.
// A plan with no destination bits (Changed == 0) reports lo = lg n:
// every key stays with group member 0 at its own address.
func (p *RemapPlan) DestField() (lo int, ok bool) {
	return p.fieldLo, p.fieldLo >= 0
}

// FieldOffset is the message offset of local address l under a
// destination field [lo, lo+c): l with the field's bits squeezed out.
func FieldOffset(l, lo, c int) int {
	return l>>uint(lo+c)<<uint(lo) | l&(1<<uint(lo)-1)
}

// destField computes fieldLo from the plan's bit routing (-1 when the
// destination bits are not a contiguous in-order field).
func (p *RemapPlan) destField() int {
	lo := p.Old.LgLocal()
	if len(p.destFromL) > 0 {
		lo = p.destFromL[0].from
	}
	for i, mv := range p.destFromL {
		if mv.from != lo+i {
			return -1
		}
	}
	c := len(p.destFromL)
	for j, mv := range p.offFromL {
		want := j
		if j >= lo {
			want = j + c
		}
		if mv.from != want || mv.to != j {
			return -1
		}
	}
	return lo
}

// Route fills dest[l] and off[l] for every local address of processor
// proc in one pass. Plans with a destination field (DestField) compute
// both with shifts and masks; others gather bit by bit.
func (p *RemapPlan) Route(proc int, dest, off []int32) {
	n := p.Old.LocalN()
	if len(dest) != n || len(off) != n {
		panic("addr: Route buffer length mismatch")
	}
	if lo, ok := p.DestField(); ok {
		// Segments of 2^lo addresses cycle through the group members;
		// each full cycle advances the message offset by a segment.
		var grp [64]int
		groups := p.AppendDests(grp[:0], proc)
		seg := 1 << uint(lo)
		for l, base := 0, 0; l < n; base += seg {
			for _, q := range groups {
				d, o := dest[l:l+seg], off[l:l+seg]
				for i := range d {
					d[i], o[i] = int32(q), int32(base+i)
				}
				l += seg
			}
		}
		return
	}
	fixed := int32(gather(proc, p.destFromP))
	for l := 0; l < n; l++ {
		dest[l] = fixed | int32(gather(l, p.destFromL))
		off[l] = int32(gather(l, p.offFromL))
	}
}

// UnpackTable fills nl[m] with the new local address for each message
// position of a message arriving from srcProc.
func (p *RemapPlan) UnpackTable(srcProc int, nl []int32) {
	if len(nl) != p.MsgLen {
		panic("addr: UnpackTable buffer length mismatch")
	}
	fixed := int32(gather(srcProc, p.nlFromP))
	if p.luts() {
		for m := range nl {
			nl[m] = fixed | p.nlLut[m]
		}
		return
	}
	for m := range nl {
		nl[m] = fixed | int32(gather(m, p.nlFromM))
	}
}

// GatherLuts returns the processor-independent inverse routing tables
// of the plan, for remaps that pull data instead of pushing it (the
// shared-memory zero-copy path): for the element at NEW local address
// i on any receiving processor q,
//
//	source processor = q's Senders()[group[i]]
//	source local address = q's GatherLBase() | local[i]
//
// The tables invert the pack/unpack masks exactly, so a gather remap
// produces bit-identical placement to pack → exchange → unpack. Plans
// over more than lutMaxEntries local keys report ok=false; callers
// fall back to the message path.
func (p *RemapPlan) GatherLuts() (group, local []int32, ok bool) {
	p.gatherOnce.Do(func() {
		n := p.Old.LocalN()
		if n > lutMaxEntries {
			return
		}
		p.groupLut = make([]int32, n)
		p.srcLut = make([]int32, n)
		for i := 0; i < n; i++ {
			g, l := int32(0), int32(0)
			// New local bits sourced from the sender's processor number
			// select the sender within the communication group; the group
			// index enumerates nlFromP in move order, matching Senders.
			for j, mv := range p.nlFromP {
				g |= int32(i>>uint(mv.to)&1) << uint(j)
			}
			// New local bits sourced from the message offset invert
			// through the pack mask: nlFromM maps offset bit j to new
			// local bit, offFromL maps old local bit to offset bit j —
			// the two tables share the offset-bit enumeration order.
			for j, mv := range p.nlFromM {
				l |= int32(i>>uint(mv.to)&1) << uint(p.offFromL[j].from)
			}
			p.groupLut[i] = g
			p.srcLut[i] = l
		}
		p.hasGather = true
	})
	return p.groupLut, p.srcLut, p.hasGather
}

// Senders returns the processors that send data to proc under the
// plan (including proc itself when it keeps data), indexed by the
// sender-group value of GatherLuts.
func (p *RemapPlan) Senders(proc int) []int {
	base := 0
	for _, mv := range p.destFromP {
		base |= (proc >> uint(mv.to) & 1) << uint(mv.from)
	}
	out := make([]int, p.GroupSize())
	for g := range out {
		s := base
		for j, mv := range p.nlFromP {
			s |= (g >> uint(j) & 1) << uint(mv.from)
		}
		out[g] = s
	}
	return out
}

// GatherLBase returns the old-local address bits that the receiving
// processor's own number determines: the bits that routed the element
// to proc in the first place (the inverse of the destination mask).
func (p *RemapPlan) GatherLBase(proc int) int {
	base := 0
	for _, mv := range p.destFromL {
		base |= (proc >> uint(mv.to) & 1) << uint(mv.from)
	}
	return base
}

// NewRemapPlan builds the plan for remapping from old to new. The two
// layouts must have identical dimensions.
func NewRemapPlan(old, new *Layout) *RemapPlan {
	if old.LgN != new.LgN || old.LgP != new.LgP {
		panic(fmt.Sprintf("addr: remap between incompatible layouts (%d/%d vs %d/%d)",
			old.LgN, old.LgP, new.LgN, new.LgP))
	}
	p := &RemapPlan{Old: old, New: new}

	// Where does each absolute bit live under the old layout?
	type src struct {
		inProc bool
		pos    int
	}
	oldSrc := make([]src, old.LgN)
	for i, b := range old.ProcBits {
		oldSrc[b] = src{true, i}
	}
	for i, b := range old.LocalBits {
		oldSrc[b] = src{false, i}
	}

	for i, b := range new.ProcBits {
		s := oldSrc[b]
		if s.inProc {
			p.destFromP = append(p.destFromP, bitMove{s.pos, i})
		} else {
			p.destFromL = append(p.destFromL, bitMove{s.pos, i})
			p.Changed++
		}
	}
	// New local bits: those sourced from the sender's local address form
	// the message offset (in new-local significance order); those sourced
	// from the sender's processor number are fixed per sender and are
	// reconstructed by the receiver during unpacking.
	off := 0
	for i, b := range new.LocalBits {
		s := oldSrc[b]
		if s.inProc {
			p.nlFromP = append(p.nlFromP, bitMove{s.pos, i})
		} else {
			p.offFromL = append(p.offFromL, bitMove{s.pos, off})
			p.nlFromM = append(p.nlFromM, bitMove{off, i})
			off++
		}
	}
	p.MsgLen = 1 << uint(off)
	if p.MsgLen != old.LocalN()>>uint(p.Changed) {
		panic("addr: remap plan internal inconsistency")
	}
	p.fieldLo = p.destField()
	return p
}

// Dest returns the destination processor for the element held at local
// address l on processor proc under the old layout.
func (p *RemapPlan) Dest(proc, l int) int {
	return gather(proc, p.destFromP) | gather(l, p.destFromL)
}

// PackOffset returns the element's position inside the long message to
// its destination processor. Elements with the same destination receive
// distinct offsets in 0..MsgLen-1, ordered by their new local address —
// exactly the pack-mask ordering of Figure 3.20.
func (p *RemapPlan) PackOffset(l int) int {
	return gather(l, p.offFromL)
}

// UnpackLocal returns, on the receiving processor, the local address
// under the new layout for the element at position m of the message
// received from srcProc (the unpack mask of Figure 3.21).
func (p *RemapPlan) UnpackLocal(srcProc, m int) int {
	return gather(m, p.nlFromM) | gather(srcProc, p.nlFromP)
}

// GroupSize returns the number of processors in each communication
// group: 2^Changed (Lemma 4).
func (p *RemapPlan) GroupSize() int { return 1 << uint(p.Changed) }

// Dests returns every destination processor for data held by proc,
// including proc itself if it keeps data, in ascending offset order of
// the varying destination bits.
func (p *RemapPlan) Dests(proc int) []int {
	return p.AppendDests(make([]int, 0, p.GroupSize()), proc)
}

// AppendDests appends proc's destination group to dst and returns it,
// for callers that route every round and keep their own scratch.
func (p *RemapPlan) AppendDests(dst []int, proc int) []int {
	fixed := gather(proc, p.destFromP)
	for g := 0; g < p.GroupSize(); g++ {
		d := fixed
		for i, m := range p.destFromL {
			d |= (g >> uint(i) & 1) << uint(m.to)
		}
		dst = append(dst, d)
	}
	return dst
}

// KeepCount returns how many of its n elements a processor keeps across
// the remap: n / 2^Changed (Lemma 4). Note a processor keeps exactly
// MsgLen elements only if it is a member of its own destination group;
// a processor outside its group keeps nothing (see SendCounts for the
// exact per-processor accounting).
func (p *RemapPlan) KeepCount() int { return p.MsgLen }

// SendVolume returns the number of elements a processor sends to other
// processors during the remap, assuming it is a member of its own
// destination group: n - n / 2^Changed.
func (p *RemapPlan) SendVolume() int {
	return p.Old.LocalN() - p.MsgLen
}

// SendCounts returns the exact packed-path communication counters for
// proc: how many elements it ships to other processors and in how many
// messages. These equal SendVolume and GroupSize-1 only when proc is a
// member of its own destination group; a processor outside its group
// keeps nothing and sends all LocalN elements in GroupSize messages.
// Some remaps of the smart schedule in the tall-P regime produce such
// processors, so zero-copy paths that want counter parity with the
// packed exchange must use this, not SendVolume.
func (p *RemapPlan) SendCounts(proc int) (vol, msgs int) {
	vary := 0
	for _, m := range p.destFromL {
		vary |= 1 << uint(m.to)
	}
	vol, msgs = p.Old.LocalN(), p.GroupSize()
	if proc&^vary == gather(proc, p.destFromP) {
		vol -= p.MsgLen
		msgs--
	}
	return vol, msgs
}

// ChangedBits computes N_BitsChanged of Lemma 3 for a remap from old to
// new without building a full plan: the number of absolute-address bits
// that are local under old and select the processor under new.
func ChangedBits(old, new *Layout) int {
	n := 0
	for _, b := range new.ProcBits {
		if old.IsLocalBit(b) {
			n++
		}
	}
	return n
}

// Apply routes every element of the distributed array from layout old to
// layout new entirely sequentially: data[p] is the local slice of
// processor p. It is the reference implementation used to validate both
// the plan-driven machine remap and the analytic formulas. The returned
// slices are freshly allocated.
func Apply(old, new *Layout, data [][]uint32) [][]uint32 {
	P := old.P()
	n := old.LocalN()
	out := make([][]uint32, P)
	for p := range out {
		out[p] = make([]uint32, n)
	}
	for p := 0; p < P; p++ {
		if len(data[p]) != n {
			panic(fmt.Sprintf("addr: Apply processor %d holds %d elements, want %d", p, len(data[p]), n))
		}
		for l := 0; l < n; l++ {
			abs := old.Abs(p, l)
			q, nl := new.Rel(abs)
			out[q][nl] = data[p][l]
		}
	}
	return out
}

// ScatterField copies src — positions [t0, t0+len(src)) of a sender's
// local array — into the sender's message buffers by a destination
// field [lo, lo+lg len(groups)) (see DestField): local address t goes
// to groups[(t>>lo) & (len(groups)-1)] at FieldOffset(t). groups is
// indexed by group member, in Dests order. Runs of 2^lo consecutive
// addresses share a destination and land contiguously, so the pack is
// a sequence of block copies (a deinterleave when lo = 0).
func ScatterField[E any](groups [][]E, lo, t0 int, src []E) {
	g := len(groups)
	c := bits.Len(uint(g)) - 1
	if lo == 0 {
		q, off := t0&(g-1), t0>>uint(c)
		for _, v := range src {
			groups[q][off] = v
			if q++; q == g {
				q = 0
				off++
			}
		}
		return
	}
	seg := 1 << uint(lo)
	for len(src) > 0 {
		m := min(seg-t0&(seg-1), len(src))
		off := FieldOffset(t0, lo, c)
		copy(groups[t0>>uint(lo)&(g-1)][off:off+m], src[:m])
		src, t0 = src[m:], t0+m
	}
}
