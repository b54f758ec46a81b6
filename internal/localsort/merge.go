package localsort

import (
	"math"
	"math/bits"
	"unsafe"

	"parbitonic/element"
	"parbitonic/internal/addr"
)

// RunOf is one sorted input run of a merge. Desc marks runs stored in
// descending order, which is how the long messages from the second
// half of a communication group arrive in §4.3's unpack-fused merge.
type RunOf[E element.Elem] struct {
	Keys []E
	Desc bool
}

// Run is a uint32 run, the element type of the paper's experiments.
type Run = RunOf[uint32]

// maxStackRuns bounds the merge state kept in stack arrays: merges of
// more runs (no algorithm in this module gets there below P=32) take
// heap tables.
const maxStackRuns = 16

// mergeTileBytes sizes the L1-resident tile a field merge with short
// segments emits into before distributing; tileMinSeg is the segment
// length from which it merges straight into the message buffers.
const (
	mergeTileBytes = 16 << 10
	tileMinSeg     = 64
)

// MergeTileLen is the tile length MergeRunsField wants for element
// type E; callers that merge every round keep one and pass it in.
func MergeTileLen[E element.Elem]() int {
	return mergeTileBytes / int(unsafe.Sizeof(*new(E)))
}

// MergeRuns merges the sorted runs into dst ascending: a branchless
// two-pointer loop for two runs, a loser tree for more — O(total · lg
// k) comparisons for k runs. Equal keys keep run order (lower run
// index first), so record payloads land deterministically. This is the
// p-way merge the paper fuses with unpacking so the separate unpack
// pass disappears (§4.3).
func MergeRuns[E element.Elem](dst []E, runs []RunOf[E]) {
	groups := [1][]E{dst}
	MergeRunsField(groups[:], 0, runs, false, nil)
}

// MergeTwo merges the ascending-sorted slices a and b into dst (whose
// length must be len(a)+len(b)) in the direction given by asc.
func MergeTwo[E element.Elem](dst, a, b []E, asc bool) {
	if len(dst) != len(a)+len(b) {
		panic("localsort: MergeTwo length mismatch")
	}
	runs := [2]RunOf[E]{{Keys: a}, {Keys: b}}
	groups := [1][]E{dst}
	MergeRunsField(groups[:], 0, runs[:], !asc, nil)
}

// MergeRunsField merges the sorted runs and writes the merged stream
// straight into a remap's message buffers by the remap's destination
// field (addr.RemapPlan.DestField): stream position t goes to
// groups[(t>>lo) & (len(groups)-1)] at addr.FieldOffset(t). The stream
// is ascending, or max-first when desc is set — a descending local
// array written forward, ties emitted in exactly the reverse of the
// ascending order. Runs may be stored in either direction. Segments of
// at least tileMinSeg keys are merged into in place; shorter ones go
// through tile (nil, or shorter than MergeTileLen, allocates one),
// which is then distributed by addr.ScatterField. The buffers must
// share the runs' total length equally.
//
// This is the merge-with-pack of §4.3: one pass turns the received
// runs into the next remap's messages, with no closure per key and no
// routing table.
func MergeRunsField[E element.Elem](groups [][]E, lo int, runs []RunOf[E], desc bool, tile []E) {
	// Comparisons read the key at the head of each element: the whole
	// element for scalars, the leading K field for KV64 records.
	switch any(*new(E)).(type) {
	case uint32:
		mergeField[E, uint32](groups, lo, runs, desc, tile)
	case uint64:
		mergeField[E, uint64](groups, lo, runs, desc, tile)
	case float32:
		mergeField[E, float32](groups, lo, runs, desc, tile)
	case float64:
		mergeField[E, float64](groups, lo, runs, desc, tile)
	default:
		mergeField[E, uint64](groups, lo, runs, desc, tile)
	}
}

func mergeField[E element.Elem, K element.Ord](groups [][]E, lo int, runs []RunOf[E], desc bool, tile []E) {
	var stk mergeStack[E, K]
	m, total := newMerger(runs, desc, &stk)
	g := len(groups)
	if g == 0 || g&(g-1) != 0 {
		panic("localsort: MergeRunsField wants a power-of-two group count")
	}
	for _, q := range groups {
		if len(q)*g != total {
			panic("localsort: MergeRunsField length mismatch")
		}
	}
	if g == 1 {
		m.fill(groups[0])
		return
	}
	c := bits.Len(uint(g)) - 1
	seg := 1 << uint(lo)
	if seg >= tileMinSeg {
		for t := 0; t < total; t += seg {
			off := addr.FieldOffset(t, lo, c)
			m.fill(groups[t>>uint(lo)&(g-1)][off : off+seg])
		}
		return
	}
	if len(tile) < MergeTileLen[E]() {
		tile = make([]E, MergeTileLen[E]())
	}
	tile = tile[:len(tile)&^(seg-1)]
	for t := 0; t < total; t += len(tile) {
		chunk := tile[:min(len(tile), total-t)]
		m.fill(chunk)
		addr.ScatterField(groups, lo, t, chunk)
	}
}

// cursor walks one run in merge order: pos steps by ±1 toward end
// (exclusive).
type cursor struct{ pos, end, step int }

func (c *cursor) left() int { return (c.end - c.pos) * c.step }

// merger is the resumable state of one merge, filled a segment at a
// time. Runs are held in tie order — input order for an ascending
// stream, reversed for a max-first one — so the lower index always
// wins ties. The loser tree (more than two runs) keeps every run's
// head key inline: exhausted and padding leaves hold the stream's
// last possible key with a rank past every live run, so they lose
// every comparison that matters without a test of their own.
type merger[E element.Elem, K element.Ord] struct {
	keys []([]E)
	cur  []cursor
	desc bool

	size     int   // loser-tree leaves: k rounded up to a power of two
	tree     []int // tree[0] the winner, tree[1:size] the losers
	head     []K   // head key of every leaf
	rank     []int // tie rank of every leaf: its index, plus size once spent
	sentinel K
}

// mergeStack backs a merger's tables for up to maxStackRuns runs. It
// sits beside the merger, not inside it: a struct pointing into itself
// escapes to the heap.
type mergeStack[E element.Elem, K element.Ord] struct {
	keys [maxStackRuns][]E
	cur  [maxStackRuns]cursor
	tree [maxStackRuns]int
	head [maxStackRuns]K
	rank [maxStackRuns]int
}

// keyAt reads the key at the head of element i of s.
func keyAt[E any, K element.Ord](s []E, i int) K {
	return *(*K)(unsafe.Pointer(&s[i]))
}

// newMerger loads the non-empty runs in tie order and returns the
// merger with their total length. It builds the merger by value: a
// pointer store of stk into a merger behind a pointer would move stk
// to the heap.
func newMerger[E element.Elem, K element.Ord](runs []RunOf[E], desc bool, stk *mergeStack[E, K]) (m merger[E, K], total int) {
	m.desc = desc
	m.keys, m.cur = stk.keys[:0], stk.cur[:0]
	if len(runs) > maxStackRuns {
		m.keys, m.cur = make([][]E, 0, len(runs)), make([]cursor, 0, len(runs))
	}
	for i := range runs {
		r := runs[i]
		if desc {
			r = runs[len(runs)-1-i]
		}
		n := len(r.Keys)
		if n == 0 {
			continue
		}
		total += n
		c := cursor{0, n, 1}
		if r.Desc != desc {
			c = cursor{n - 1, -1, -1}
		}
		m.keys = append(m.keys, r.Keys)
		m.cur = append(m.cur, c)
	}
	k := len(m.keys)
	if k <= 2 {
		return m, total
	}
	m.size = 1 << uint(bits.Len(uint(k-1)))
	if m.size <= maxStackRuns {
		m.tree, m.head, m.rank = stk.tree[:m.size], stk.head[:m.size], stk.rank[:m.size]
	} else {
		m.tree, m.head, m.rank = make([]int, m.size), make([]K, m.size), make([]int, m.size)
	}
	m.playTree(k)
	return m, total
}

// playTree seeds the loser tree over the first k leaves; the rest pad
// it to size.
func (m *merger[E, K]) playTree(k int) {
	size := m.size
	m.sentinel = maxKey[K]()
	if m.desc {
		m.sentinel = minKey[K]()
	}
	for r := range m.head {
		if r < k {
			m.head[r], m.rank[r] = keyAt[E, K](m.keys[r], m.cur[r].pos), r
		} else {
			m.head[r], m.rank[r] = m.sentinel, r+size
		}
	}
	// Play the initial tournament bottom-up: win holds each node's
	// winner (leaves at size+r), the tree keeps the losers.
	var winBuf [2 * maxStackRuns]int
	win := winBuf[:]
	if size > maxStackRuns {
		win = make([]int, 2*size)
	}
	for r := 0; r < size; r++ {
		win[size+r] = r
	}
	for node := size - 1; node >= 1; node-- {
		a, b := win[2*node], win[2*node+1]
		if m.beats(b, a) {
			a, b = b, a
		}
		win[node], m.tree[node] = a, b
	}
	m.tree[0] = win[1]
}

// beats reports whether leaf a's head goes before leaf b's.
func (m *merger[E, K]) beats(a, b int) bool {
	x, y := m.head[a], m.head[b]
	if x == y {
		return m.rank[a] < m.rank[b]
	}
	return (x < y) != m.desc
}

// fill writes the next len(dst) keys of the merged stream into dst.
func (m *merger[E, K]) fill(dst []E) {
	switch len(m.keys) {
	case 0:
	case 1:
		m.copyRun(dst, 0)
	case 2:
		m.fill2(dst)
	default:
		m.fillTree(dst)
	}
}

// copyRun copies the next len(dst) keys of run r into dst.
func (m *merger[E, K]) copyRun(dst []E, r int) {
	s, c := m.keys[r], &m.cur[r]
	if c.step > 0 {
		c.pos += copy(dst, s[c.pos:c.pos+len(dst)])
		return
	}
	for i := range dst {
		dst[i] = s[c.pos-i]
	}
	c.pos -= len(dst)
}

// fill2 is the two-run merge. The batch bound keeps both cursors in
// range without a per-key exhaustion test.
func (m *merger[E, K]) fill2(dst []E) {
	a, b := m.keys[0], m.keys[1]
	ca, cb := &m.cur[0], &m.cur[1]
	for len(dst) > 0 {
		switch {
		case ca.left() == 0:
			m.copyRun(dst, 1)
			return
		case cb.left() == 0:
			m.copyRun(dst, 0)
			return
		}
		n := min(ca.left(), cb.left(), len(dst))
		if unsafe.Sizeof(*new(E)) == unsafe.Sizeof(*new(K)) {
			ca.pos, cb.pos = merge2(element.Cast[K](dst[:n]), element.Cast[K](a), element.Cast[K](b),
				ca.pos, cb.pos, ca.step, cb.step, m.desc)
		} else {
			kv := element.Cast[element.KV64, E]
			ca.pos, cb.pos = merge2KV(kv(dst[:n]), kv(a), kv(b), ca.pos, cb.pos, ca.step, cb.step, m.desc)
		}
		dst = dst[n:]
	}
}

// merge2 fills dst from runs a and b, read from i and j with steps si
// and sj (±1), and returns the advanced positions; a wins ties. Each
// key costs one compare whose outcome feeds conditional moves and
// index arithmetic, not a branch: on interleaved inputs the merge
// direction is a coin flip no branch predictor can learn.
func merge2[T element.Ord](dst, a, b []T, i, j, si, sj int, desc bool) (int, int) {
	if desc {
		for t := range dst {
			x, y := a[i], b[j]
			ta := 0
			if y <= x {
				ta = 1
			}
			if y <= x {
				y = x
			}
			dst[t] = y
			i += si & -ta
			j += sj & (ta - 1)
		}
		return i, j
	}
	for t := range dst {
		x, y := a[i], b[j]
		ta := 0
		if x <= y {
			ta = 1
		}
		if x <= y {
			y = x
		}
		dst[t] = y
		i += si & -ta
		j += sj & (ta - 1)
	}
	return i, j
}

// merge2KV is merge2 for records: the compare reads K, and each field
// moves by its own conditional move.
func merge2KV(dst, a, b []element.KV64, i, j, si, sj int, desc bool) (int, int) {
	for t := range dst {
		x, y := a[i], b[j]
		take := x.K <= y.K
		if desc {
			take = y.K <= x.K
		}
		ta := 0
		if take {
			ta = 1
		}
		k, v := y.K, y.V
		if take {
			k = x.K
		}
		if take {
			v = x.V
		}
		dst[t] = element.KV64{K: k, V: v}
		i += si & -ta
		j += sj & (ta - 1)
	}
	return i, j
}

// fillTree is the loser-tree merge of three or more runs: each key
// costs one inline head compare per tree level.
func (m *merger[E, K]) fillTree(dst []E) {
	size, tree, head, rank := m.size, m.tree, m.head, m.rank
	desc := m.desc
	for t := range dst {
		w := tree[0]
		c := &m.cur[w]
		s := m.keys[w]
		dst[t] = s[c.pos]
		c.pos += c.step
		if c.pos != c.end {
			head[w] = keyAt[E, K](s, c.pos)
		} else {
			head[w], rank[w] = m.sentinel, w+size
		}
		hw, rw := head[w], rank[w]
		for node := (w + size) >> 1; node > 0; node >>= 1 {
			o := tree[node]
			ho := head[o]
			if ho == hw && rank[o] < rw || ho != hw && (ho < hw) != desc {
				tree[node], w, hw, rw = w, o, ho, rank[o]
			}
		}
		tree[0] = w
	}
}

// maxKey and minKey are the extreme values of a key type: the
// sentinels spent loser-tree leaves hold.
func maxKey[K element.Ord]() K {
	var k K
	switch p := any(&k).(type) {
	case *uint32:
		*p = math.MaxUint32
	case *uint64:
		*p = math.MaxUint64
	case *float32:
		*p = float32(math.Inf(1))
	case *float64:
		*p = math.Inf(1)
	}
	return k
}

func minKey[K element.Ord]() K {
	var k K
	switch p := any(&k).(type) {
	case *float32:
		*p = float32(math.Inf(-1))
	case *float64:
		*p = math.Inf(-1)
	}
	return k
}
