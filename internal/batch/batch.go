// Package batch implements the operation-batch algebra of the paper:
// run-length encoded batches (Definition 5), batch combination, the
// anchor's position-interval assignment (§III-D for the queue, §VI for the
// stack), the recursive interval decomposition of Stage 3 (§III-E), and
// the join/leave counters of §IV. It also threads through the value()
// ranks of §V, which define the witness total order ≺ used to verify
// sequential consistency, and the ticket counters of the stack variant.
//
// Everything here is pure data manipulation with no I/O; the protocol
// packages drive it from their message handlers.
package batch

import "fmt"

// Mode selects the data-structure semantics: FIFO queue, LIFO stack, or
// bounded-priority heap.
type Mode uint8

// The two data structures of the paper, plus the Skeap-style bounded
// constant-priority heap the follow-up paper derives from the same wave
// machinery: L FIFO levels, DequeueMin pops the front of the lowest
// non-empty level.
const (
	Queue Mode = iota
	Stack
	Heap
)

func (m Mode) String() string {
	switch m {
	case Stack:
		return "stack"
	case Heap:
		return "heap"
	default:
		return "queue"
	}
}

// Batch is a sequence of operation runs (Definition 5): Runs[i-1] is the
// paper's op_i; odd 1-based indices are enqueue (push) run lengths, even
// indices are dequeue (pop) run lengths. J and L count the JOIN and LEAVE
// requests the batch reports towards the anchor (§IV).
//
// The stack variant always uses the canonical shape (0, pops, pushes)
// so that combining batches keeps every pop ordered before every push of
// the same aggregation wave (Theorem 20 and the §VI asynchrony fix rely on
// this).
type Batch struct {
	Runs []int64
	J, L int64
}

// IsDeqIndex reports whether 0-based run index i holds dequeues.
func IsDeqIndex(i int) bool { return i%2 == 1 }

// Empty reports whether the batch carries nothing at all: no operations
// and no join/leave counts. It corresponds to the paper's empty batch (0).
func (b Batch) Empty() bool {
	if b.J != 0 || b.L != 0 {
		return false
	}
	for _, r := range b.Runs {
		if r != 0 {
			return false
		}
	}
	return true
}

// NumOps returns the total number of queue operations in the batch.
func (b Batch) NumOps() int64 {
	var n int64
	for _, r := range b.Runs {
		n += r
	}
	return n
}

// NumEnqueues returns the number of enqueue (push) operations.
func (b Batch) NumEnqueues() int64 {
	var n int64
	for i := 0; i < len(b.Runs); i += 2 {
		n += b.Runs[i]
	}
	return n
}

// NumDequeues returns the number of dequeue (pop) operations.
func (b Batch) NumDequeues() int64 {
	var n int64
	for i := 1; i < len(b.Runs); i += 2 {
		n += b.Runs[i]
	}
	return n
}

// Size is a rough message-size measure: the number of run entries
// (Theorem 18 bounds it by O(log n) under one request per node per round).
func (b Batch) Size() int { return len(b.Runs) }

// AppendEnqueue records one locally generated enqueue, preserving the
// local generation order (§III-A): extend the last run if it is an
// enqueue run, else open a new one.
func (b *Batch) AppendEnqueue() {
	if len(b.Runs)%2 == 1 {
		b.Runs[len(b.Runs)-1]++
		return
	}
	b.Runs = append(b.Runs, 1)
}

// AppendDequeue records one locally generated dequeue.
func (b *Batch) AppendDequeue() {
	if n := len(b.Runs); n > 0 && n%2 == 0 {
		b.Runs[n-1]++
		return
	}
	if len(b.Runs) == 0 {
		// The batch must start with an (empty) enqueue run so that the
		// dequeue lands on an even 1-based index.
		b.Runs = append(b.Runs, 0)
	}
	b.Runs = append(b.Runs, 1)
}

// MakeStack builds the canonical stack batch (0, pops, pushes), trimming
// trailing zero runs.
func MakeStack(pops, pushes int64) Batch {
	switch {
	case pops == 0 && pushes == 0:
		return Batch{}
	case pushes == 0:
		return Batch{Runs: []int64{0, pops}}
	default:
		return Batch{Runs: []int64{0, pops, pushes}}
	}
}

// Heap batches use a fixed canonical run layout: run 2l holds the
// enqueues of priority level l, run 1 holds every DequeueMin, and the
// remaining odd runs are always empty. The layout is closed under
// element-wise Combine, so folding canonical heap sub-batches up the
// aggregation tree keeps the shape canonical.

// HeapEnqRunIndex returns the canonical run index of a level-l enqueue.
func HeapEnqRunIndex(level int32) int { return 2 * int(level) }

// HeapDeqRunIndex is the canonical run index of every DequeueMin.
const HeapDeqRunIndex = 1

// MakeHeap builds the canonical heap batch: enqs[l] level-l enqueues plus
// deqs DequeueMin operations, trimming trailing zero runs.
func MakeHeap(deqs int64, enqs []int64) Batch {
	n := 0
	for l, k := range enqs {
		if k > 0 {
			n = HeapEnqRunIndex(int32(l)) + 1
		}
	}
	if deqs > 0 && n < HeapDeqRunIndex+1 {
		n = HeapDeqRunIndex + 1
	}
	if n == 0 {
		return Batch{}
	}
	runs := make([]int64, n)
	for l, k := range enqs {
		if ri := HeapEnqRunIndex(int32(l)); ri < n {
			runs[ri] = k
		}
	}
	if deqs > 0 {
		runs[HeapDeqRunIndex] = deqs
	}
	return Batch{Runs: runs}
}

// Combine merges batches element-wise (§III-A): run i of the result is the
// sum of runs i, and the join/leave counters add up. The order of the
// arguments is the sub-batch order later used by Decompose; it determines
// the relative serialization of the sub-batches' operations.
func Combine(bs ...Batch) Batch {
	var out Batch
	for _, b := range bs {
		if len(b.Runs) > len(out.Runs) {
			out.Runs = append(out.Runs, make([]int64, len(b.Runs)-len(out.Runs))...)
		}
		for i, r := range b.Runs {
			out.Runs[i] += r
		}
		out.J += b.J
		out.L += b.L
	}
	return out
}

func (b Batch) String() string {
	return fmt.Sprintf("B%v{j=%d,l=%d}", b.Runs, b.J, b.L)
}

// Clone returns a deep copy.
func (b Batch) Clone() Batch {
	return Batch{Runs: append([]int64(nil), b.Runs...), J: b.J, L: b.L}
}

// Interval is an inclusive range of DHT positions; it is empty when
// Hi < Lo (canonically Hi == Lo-1, the paper's x_i = y_i + 1 case).
type Interval struct {
	Lo, Hi int64
}

// Len returns the number of positions in the interval.
func (iv Interval) Len() int64 {
	if iv.Hi < iv.Lo {
		return 0
	}
	return iv.Hi - iv.Lo + 1
}

// Empty reports whether the interval holds no position.
func (iv Interval) Empty() bool { return iv.Hi < iv.Lo }

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi) }

// HeapPosShift positions the priority level in the high bits of a heap
// DHT position; the low bits carry the level-local index (starting at 1).
// Positions stay globally unique across levels and are never reused, so
// the DHT layer treats them exactly like queue positions.
const HeapPosShift = 40

// HeapPos builds the tagged DHT position of level-local index idx.
func HeapPos(level int32, idx int64) int64 { return int64(level)<<HeapPosShift | idx }

// Segment is one contiguous piece of a heap dequeue-run assignment: a
// position interval within a single priority level. A DequeueMin run's
// assignment spans levels in priority order, so it carries a segment list
// instead of the single interval queue and stack runs use.
type Segment struct {
	Level int32
	Iv    Interval
}

// RunAssign is the assignment the anchor computes for one run of a batch
// (Stage 2) and that Stage 3 decomposes down the tree: the position
// interval, the value() rank of the run's first operation (§V), and for
// the stack the ticket base (pushes) or ticket bound (pops) of §VI. Heap
// dequeue runs carry Segs instead of Iv: the consumed positions span
// priority levels (lowest first, FIFO within a level).
type RunAssign struct {
	Iv        Interval
	ValueBase int64
	Ticket    int64
	Segs      []Segment
}

// segsLen returns the total number of positions across the segments.
func segsLen(segs []Segment) int64 {
	var n int64
	for _, s := range segs {
		n += s.Iv.Len()
	}
	return n
}

// LevelWindow is one priority level's occupied position window (heap
// mode), in level-local coordinates with the queue invariant
// First <= Last+1.
type LevelWindow struct {
	First, Last int64
}

// AnchorState is the state the anchor maintains across waves: the occupied
// position window [First,Last] with the invariant First <= Last+1 (queue;
// the stack uses only Last), the value counter c of §V, and the
// monotonically increasing ticket counter of §VI. Heap mode keeps one
// window per priority level in Levels instead of [First,Last]; the slice
// grows on first use of a level and is nil in queue and stack mode.
type AnchorState struct {
	First  int64
	Last   int64
	Value  int64
	Ticket int64
	Levels []LevelWindow
}

// NewAnchorState returns the initial state: empty structure, positions
// starting at 1, value counter starting at 1 (§V).
func NewAnchorState() AnchorState {
	return AnchorState{First: 1, Last: 0, Value: 1, Ticket: 0}
}

// Clone returns a copy that shares no memory with st: the per-level
// windows are the one part of the state behind a pointer.
func (st AnchorState) Clone() AnchorState {
	st.Levels = append([]LevelWindow(nil), st.Levels...)
	return st
}

// ensureLevel grows the per-level windows through level l.
func (st *AnchorState) ensureLevel(l int) {
	for len(st.Levels) <= l {
		st.Levels = append(st.Levels, LevelWindow{First: 1, Last: 0})
	}
}

// Size returns the current number of stored elements.
func (st AnchorState) Size() int64 {
	if len(st.Levels) > 0 {
		var s int64
		for _, w := range st.Levels {
			s += w.Last - w.First + 1
		}
		return s
	}
	return st.Last - st.First + 1
}

// CheckInvariant panics if the queue invariant First <= Last+1 is broken
// (per level in heap mode); the protocol calls it after every assignment
// as a self-check.
func (st *AnchorState) CheckInvariant() {
	if st.First > st.Last+1 {
		panic(fmt.Sprintf("batch: anchor invariant violated: first=%d last=%d", st.First, st.Last))
	}
	for l, w := range st.Levels {
		if w.First > w.Last+1 {
			panic(fmt.Sprintf("batch: anchor level-%d invariant violated: first=%d last=%d", l, w.First, w.Last))
		}
	}
}

// Assign performs Stage 2 at the anchor: one RunAssign per run of b, in
// index order, updating the anchor state. Queue semantics follow §III-D;
// stack semantics follow §VI (pops consume descending from Last, pushes
// get fresh positions and tickets). Heap semantics generalize the queue:
// run 2l appends fresh positions to level l's window, and a DequeueMin
// run consumes ascending from the front of each level in priority order,
// yielding a segment list.
func (st *AnchorState) Assign(mode Mode, b Batch) []RunAssign {
	if mode == Heap {
		return st.assignHeap(b)
	}
	out := make([]RunAssign, len(b.Runs))
	for i, k := range b.Runs {
		ra := RunAssign{ValueBase: st.Value}
		st.Value += k
		if !IsDeqIndex(i) {
			// Enqueue / push run: fresh positions above Last.
			ra.Iv = Interval{Lo: st.Last + 1, Hi: st.Last + k}
			ra.Ticket = st.Ticket + 1
			st.Ticket += k
			st.Last += k
		} else if mode == Queue {
			// Dequeue run: consume ascending from First.
			hi := st.First + k - 1
			if hi > st.Last {
				hi = st.Last
			}
			ra.Iv = Interval{Lo: st.First, Hi: hi}
			st.First = min64(st.First+k, st.Last+1)
		} else {
			// Pop run: consume descending from Last; the interval is
			// stored ascending, consumers take it from Hi downward. All
			// pops of the run share the current ticket as their bound.
			lo := st.Last - k + 1
			if lo < 1 {
				lo = 1
			}
			ra.Iv = Interval{Lo: lo, Hi: st.Last}
			ra.Ticket = st.Ticket
			st.Last -= k
			if st.Last < 0 {
				st.Last = 0
			}
			if st.First > st.Last+1 {
				st.First = st.Last + 1
			}
		}
		out[i] = ra
	}
	st.CheckInvariant()
	return out
}

// assignHeap is the heap branch of Assign. Runs are processed in index
// order, so a wave's DequeueMin operations (run 1) see the same wave's
// level-0 enqueues (run 0) but not its level ≥ 1 enqueues — exactly the
// serialization the value() ranks define.
func (st *AnchorState) assignHeap(b Batch) []RunAssign {
	out := make([]RunAssign, len(b.Runs))
	for i, k := range b.Runs {
		ra := RunAssign{ValueBase: st.Value}
		st.Value += k
		if !IsDeqIndex(i) {
			// Enqueue run of level i/2: fresh positions above the level's
			// Last; the interval stays within the level's tagged space.
			l := i / 2
			st.ensureLevel(l)
			w := &st.Levels[l]
			ra.Iv = Interval{Lo: HeapPos(int32(l), w.Last+1), Hi: HeapPos(int32(l), w.Last+k)}
			w.Last += k
		} else {
			// DequeueMin run: consume from the front of the lowest non-empty
			// levels first, FIFO within each level. Operations beyond the
			// total stored size return ⊥.
			rem := k
			for l := range st.Levels {
				if rem == 0 {
					break
				}
				w := &st.Levels[l]
				avail := w.Last - w.First + 1
				if avail <= 0 {
					continue
				}
				take := min64(rem, avail)
				ra.Segs = append(ra.Segs, Segment{
					Level: int32(l),
					Iv:    Interval{Lo: HeapPos(int32(l), w.First), Hi: HeapPos(int32(l), w.First+take-1)},
				})
				w.First += take
				rem -= take
			}
		}
		out[i] = ra
	}
	st.CheckInvariant()
	return out
}

// Decompose carves the prefix of each run assignment for one sub-batch
// (Stage 3, §III-E). It mutates assigns — the remaining suffixes stay for
// the following sub-batches — and returns the sub-batch's own run
// assignments, aligned with sub.Runs.
func Decompose(mode Mode, assigns []RunAssign, sub Batch) []RunAssign {
	out := make([]RunAssign, len(sub.Runs))
	for i, k := range sub.Runs {
		a := &assigns[i]
		ra := RunAssign{ValueBase: a.ValueBase, Ticket: a.Ticket}
		a.ValueBase += k
		switch {
		case !IsDeqIndex(i):
			// Enqueue / push run: exact prefix of length k. Heap enqueue
			// intervals live inside a single level's tagged space, so the
			// same arithmetic applies.
			ra.Iv = Interval{Lo: a.Iv.Lo, Hi: a.Iv.Lo + k - 1}
			a.Iv.Lo += k
			a.Ticket += k
		case mode == Heap:
			// DequeueMin run: prefix of length at most k across the
			// segments, in order (lowest level first, FIFO within).
			rem := k
			for rem > 0 && len(a.Segs) > 0 {
				s := &a.Segs[0]
				take := min64(rem, s.Iv.Len())
				ra.Segs = append(ra.Segs, Segment{Level: s.Level, Iv: Interval{Lo: s.Iv.Lo, Hi: s.Iv.Lo + take - 1}})
				s.Iv.Lo += take
				if s.Iv.Empty() {
					a.Segs = a.Segs[1:]
				}
				rem -= take
			}
		case mode == Queue:
			// Dequeue run: prefix of length at most k; the rest of the
			// sub-run returns ⊥ (paper: [x_i, min{x_i+op_i-1, y_i}]).
			hi := a.Iv.Lo + k - 1
			if hi > a.Iv.Hi {
				hi = a.Iv.Hi
			}
			ra.Iv = Interval{Lo: a.Iv.Lo, Hi: hi}
			a.Iv.Lo = min64(a.Iv.Lo+k, a.Iv.Hi+1)
		default:
			// Pop run: suffix of length at most k, consumed from the top.
			lo := a.Iv.Hi - k + 1
			if lo < a.Iv.Lo {
				lo = a.Iv.Lo
			}
			ra.Iv = Interval{Lo: lo, Hi: a.Iv.Hi}
			a.Iv.Hi = max64(a.Iv.Hi-k, a.Iv.Lo-1)
		}
		out[i] = ra
	}
	return out
}

// OpAssign is one operation's final assignment: its DHT position (or
// NoPosition for a ⊥ dequeue), its value() rank, and its ticket (stack:
// the push's ticket, or the pop's inclusive upper bound).
type OpAssign struct {
	Pos    int64
	Value  int64
	Ticket int64
}

// NoPosition marks a dequeue that returns ⊥ without touching the DHT.
const NoPosition int64 = -1

// Expand lists the per-operation assignments of one run of length k owned
// by a single node. For queue runs positions ascend from Iv.Lo; for stack
// pop runs they descend from Iv.Hi (the first pop takes the top); heap
// dequeue runs walk the segment list in order. The operations beyond the
// interval (or segment) capacity are ⊥ dequeues.
func Expand(mode Mode, runIndex int, ra RunAssign, k int64) []OpAssign {
	if mode == Heap && IsDeqIndex(runIndex) {
		return expandHeapDeq(ra, k)
	}
	out := make([]OpAssign, k)
	avail := ra.Iv.Len()
	for j := int64(0); j < k; j++ {
		oa := OpAssign{Value: ra.ValueBase + j, Ticket: ra.Ticket}
		switch {
		case !IsDeqIndex(runIndex):
			oa.Pos = ra.Iv.Lo + j
			oa.Ticket = ra.Ticket + j
		case j >= avail:
			oa.Pos = NoPosition
		case mode == Queue:
			oa.Pos = ra.Iv.Lo + j
		default:
			oa.Pos = ra.Iv.Hi - j
		}
		out[j] = oa
	}
	return out
}

// expandHeapDeq lists a DequeueMin run's per-operation assignments: the
// segment positions in order, then ⊥ for the remainder.
func expandHeapDeq(ra RunAssign, k int64) []OpAssign {
	out := make([]OpAssign, k)
	seg, off := 0, int64(0)
	for j := int64(0); j < k; j++ {
		oa := OpAssign{Value: ra.ValueBase + j, Pos: NoPosition}
		if seg < len(ra.Segs) {
			oa.Pos = ra.Segs[seg].Iv.Lo + off
			off++
			if off >= ra.Segs[seg].Iv.Len() {
				seg++
				off = 0
			}
		}
		out[j] = oa
	}
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
