// Package ldb implements the Linearized De Bruijn network of the paper
// (§II-A, Definition 2): every process emulates three virtual nodes — a
// middle node m(v) with a pseudorandom label in [0,1), a left node
// l(v) = m(v)/2 and a right node r(v) = (m(v)+1)/2 — arranged on a sorted
// cycle with linear edges between consecutive nodes and virtual edges
// between nodes of the same process.
//
// The package provides the three local rules the protocol relies on:
//
//   - the aggregation-tree rules (§III-B, with the way out of a triad
//     changed, see below), from what a node and its siblings know;
//   - De Bruijn routing (Lemma 3): O(log n) w.h.p. hops to the predecessor
//     of any point, via bit-prepending hops over the virtual l/r edges plus
//     short linear corrections;
//   - ring bookkeeping helpers used for bootstrap and as test oracles.
//
// # What a route costs
//
// The route is the DHT term of an operation's latency (3 × tree height +
// DHT hops, §VII-B), and what it costs is rounds, not hops: a hop between
// processes is a message that takes a round (on TCP a frame), while a hop
// over a virtual edge between the three nodes of one process stays inside
// the process and costs none, on the simulator and on TCP alike. So
// NewRoute and NextHop make the choices Lemma 3 leaves open at the price of
// a hop between processes:
//
//   - a route that starts at a left or right node takes the free virtual
//     edge to its own middle node and prepends its first bit there;
//   - the bit count is chosen per route, from where the bits land: it
//     minimises the paid walks between bits plus the closing walk, which
//     is known in advance, and is at most ⌈log2(1/ĝ)⌉ − 1, so 0 on a ring of
//     one or two nodes;
//   - the density estimate ĝ is the mean of the gaps to both ring neighbours;
//   - the walk to a middle node heads for whichever neighbour is one, else
//     for the side where a node two hops away is one, else towards the point
//     where the next bit should be prepended; it carries its direction in
//     the message and never crosses the 0/1 seam;
//   - delivery is at the first node responsible for the target, in any phase.
//
// Lemma 3's bound is unchanged; this is its constant (EXPERIMENTS.md, "The
// route at what a round costs" and "Read the whole neighbourhood").
//
// # The aggregation tree
//
// The paper's tree has a middle node report to its left sibling, a right
// node to its middle sibling and a left node to its ring predecessor, so a
// process's depth grows by one edge between processes per process to its
// left. Here a process picks one up edge among the ring edges of its left
// and middle nodes (UpEdge), the middle node's only once the process is
// whole: the edge, not wrapping and not to a partial node, whose far end's
// process has the smallest left label (LeftOf), if that is below its own. The
// node holding it is the triad's root and reports over it; its siblings
// report to it or through it (Up.Parent, the one statement of who reports to
// whom inside a triad). A right node's edges would add nothing (see UpEdge).
// LeftOf falls strictly along every edge between
// processes, so the tree stays acyclic, rooted at the anchor, and covers
// every node. Every node of a process computes the same up edge from its own
// ring edges and what its siblings told of theirs (SibEdges), and a node
// counts a ring neighbour as a child when that neighbour said it reports
// here (PredUp, SuccUp).
//
// Under churn a process's nodes enter the ring one by one, and a middle or
// right node whose sibling parent is not a ring member yet has no way to
// the anchor (it is partial). No up edge leads to a partial node where there
// is a choice; only a process with none waits behind a partial
// predecessor, as under the paper's rule. LeftOf still falls along every
// edge between processes.
package ldb

import (
	"fmt"
	"sort"

	"skueue/internal/fixpoint"
	"skueue/internal/transport"
	"skueue/internal/xrand"
)

// Kind distinguishes the three virtual nodes a process emulates.
type Kind uint8

// The three virtual node kinds of Definition 2.
const (
	Left Kind = iota
	Middle
	Right
)

func (k Kind) String() string {
	switch k {
	case Left:
		return "L"
	case Middle:
		return "M"
	case Right:
		return "R"
	}
	return "?"
}

// Point is a position on the ring: the label plus a tiebreak that makes the
// ordering total even under label collisions (the paper assumes an
// injective hash; the code tolerates collisions).
type Point struct {
	Label fixpoint.Frac
	Tie   uint64
}

// Less is the total order on ring positions.
func (p Point) Less(q Point) bool {
	if p.Label != q.Label {
		return p.Label < q.Label
	}
	return p.Tie < q.Tie
}

// Equal reports identity of ring positions.
func (p Point) Equal(q Point) bool { return p == q }

func (p Point) String() string {
	return fmt.Sprintf("%s#%04x", p.Label, p.Tie&0xffff)
}

// Ref is a node reference as carried in messages: the simulation address
// plus everything a neighbour must know about the node (paper §II-A: when
// a node learns a reference it also learns whether it is a left, middle or
// right virtual node). Kind sits next to ID, in the padding the 8-byte
// aligned Point would leave after it: a reference is held many times over
// in every node and message.
type Ref struct {
	ID    transport.NodeID
	Kind  Kind
	Point Point
}

// Valid reports whether the reference points at a node.
func (r Ref) Valid() bool { return r.ID != transport.None }

func (r Ref) String() string {
	if !r.Valid() {
		return "<nil>"
	}
	return fmt.Sprintf("%v@%d%s", r.Point, r.ID, r.Kind)
}

// ProcessPoints derives the three virtual node points for a process with
// the given identifier, using the publicly known label hash.
func ProcessPoints(labels xrand.Hasher, procID uint64) (l, m, r Point) {
	ml := labels.Frac(procID)
	tie := func(kind Kind) uint64 {
		return xrand.SplitMix64(procID*4 + uint64(kind) + 0x5bf05bf0)
	}
	m = Point{Label: ml, Tie: tie(Middle)}
	l = Point{Label: ml.Halve(), Tie: tie(Left)}
	r = Point{Label: ml.HalvePlus(), Tie: tie(Right)}
	return
}

// LeftOf is the left label of the process a node belongs to, worked out
// from the node alone: l(v) = m(v)/2 = r(v) − ½.
func LeftOf(r Ref) fixpoint.Frac {
	switch r.Kind {
	case Middle:
		return r.Point.Label.Halve()
	case Right:
		return r.Point.Label - fixpoint.Half
	}
	return r.Point.Label
}

// Neighborhood is the local view a virtual node has of the topology: its
// own identity, its ring neighbours, the neighbours two hops away, what its
// neighbours report to, the ring edges of its process siblings, and the three
// virtual nodes of its process (its "siblings"; Self is one of them).
type Neighborhood struct {
	Self Ref
	Pred Ref
	Succ Ref
	// PredPred and SuccSucc are Pred's predecessor and Succ's successor, or
	// invalid while unknown. NextHop reads their kinds: a walk to a middle
	// node that sees none next to it looks two hops ahead.
	PredPred, SuccSucc Ref
	// PredUp and SuccUp are the nodes Pred and Succ report to, as their
	// latest word said, when that is a node of another process (the
	// neighbour holds its process's up edge); invalid otherwise. Children
	// counts a neighbour that names this node.
	PredUp, SuccUp Ref
	// PredPartial and SuccPartial mark ring neighbours whose way to the
	// anchor through their process siblings is not complete yet: a middle
	// or right node of a joining process whose left (or middle) sibling is
	// not a ring member yet, since a process's nodes enter the ring one by
	// one. No up edge leads to a partial node where there is a choice.
	PredPartial, SuccPartial bool
	// Whole says that all three nodes of the process are ring members, and
	// SibEdges holds the ring edges of its left and middle nodes (indexed by
	// Kind) as those last told; the entry of Self's own kind is not read.
	Whole    bool
	SibEdges [2]Edges
	// SibL, SibM, SibR are l(v), m(v), r(v) of the owning process.
	SibL, SibM, SibR Ref
}

// Edges is what a node tells its process siblings of its ring edges: its
// ring neighbours, invalid while unknown, and whether each is partial.
type Edges struct {
	Pred, Succ               Ref
	PredPartial, SuccPartial bool
}

// IsAnchor reports whether this node is the leftmost node of the ring,
// detected purely locally: the predecessor wraps around (has a larger
// point). The anchor is always a left virtual node (the minimum left label
// is half the minimum middle label).
func (nb Neighborhood) IsAnchor() bool {
	return nb.Self.Point.Less(nb.Pred.Point) || nb.Self.ID == nb.Pred.ID
}

// isWrapSucc reports whether the successor edge wraps around the ring.
func (nb Neighborhood) isWrapSucc() bool {
	return nb.Succ.Point.Less(nb.Self.Point) || nb.Succ.ID == nb.Self.ID
}

// isWrapPred reports whether the predecessor edge wraps around the ring.
func (nb Neighborhood) isWrapPred() bool {
	return nb.Self.Point.Less(nb.Pred.Point) || nb.Pred.ID == nb.Self.ID
}

// edges returns the ring edges of the process's node of kind k: Self's own,
// or what that sibling last told.
func (nb Neighborhood) edges(k Kind) Edges {
	if k == nb.Self.Kind {
		return Edges{Pred: nb.Pred, Succ: nb.Succ, PredPartial: nb.PredPartial, SuccPartial: nb.SuccPartial}
	}
	return nb.SibEdges[k]
}

// Up is a process's up edge: Holder, the kind of the node that holds it,
// which is the root of the triad, and To, the node of another process at its
// far end. To is invalid at the anchor's process, whose left node is the
// tree's root.
type Up struct {
	Holder Kind
	To     Ref
}

// Parent is the triad rule: the aggregation-tree parent of the process's
// node of kind k. The holder reports over the up edge; the others report
// within the triad: a right node to its middle sibling, a middle node to its
// left sibling, and a left node to its middle sibling, which then holds the
// up edge. ok is false exactly for the anchor, the tree root.
func (u Up) Parent(k Kind, sibL, sibM Ref) (parent Ref, ok bool) {
	switch {
	case k == u.Holder:
		return u.To, u.To.Valid()
	case k == Middle:
		return sibL, true
	}
	return sibM, true
}

// UpEdge returns the process's up edge, read from the ring edges of its left
// node and, when the process is whole, of its middle node too. An edge counts
// if it does not wrap and its far end is not partial, and the process takes
// the one whose far end has the smallest left label (LeftOf), if that is
// below its own; the left node's edges come first, and win a tie. When none
// counts, the left node reports to its predecessor. The right node's edges
// would add nothing: its successor is a right node or a middle node above the
// own middle node, and its predecessor is a middle node at or above the own
// middle node, a right node r whose process's left node r − ½ is, with no
// left node in between, the own left node's predecessor or above it, or —
// when nothing lies between ½ and the right node — the own process is the
// anchor's.
//
// A left node whose predecessor wraps is the anchor, and one whose
// predecessor is unknown (a joiner not yet spliced in) is treated as one:
// either way the process reports nowhere.
func (nb Neighborhood) UpEdge() Up {
	pred := nb.edges(Left).Pred
	if !pred.Valid() || !pred.Point.Less(nb.SibL.Point) {
		return Up{Holder: Left, To: Ref{ID: transport.None}}
	}
	up, best := Up{Holder: Left, To: pred}, LeftOf(nb.SibL)
	kinds := []Kind{Left, Middle}
	if !nb.Whole {
		kinds = kinds[:1]
	}
	for _, k := range kinds {
		from, e := [...]Ref{Left: nb.SibL, Middle: nb.SibM}[k], nb.edges(k)
		if e.Pred.Valid() && e.Pred.Point.Less(from.Point) && !e.PredPartial && LeftOf(e.Pred) < best {
			up, best = Up{Holder: k, To: e.Pred}, LeftOf(e.Pred)
		}
		if e.Succ.Valid() && from.Point.Less(e.Succ.Point) && !e.SuccPartial && LeftOf(e.Succ) < best {
			up, best = Up{Holder: k, To: e.Succ}, LeftOf(e.Succ)
		}
	}
	return up
}

// Parent returns the aggregation-tree parent (Up.Parent). ok is false
// exactly for the anchor, the tree root.
func (nb Neighborhood) Parent() (parent Ref, ok bool) {
	return nb.UpEdge().Parent(nb.Self.Kind, nb.SibL, nb.SibM)
}

// Children returns the aggregation-tree children: the siblings that report
// to this node (see Parent), plus each ring neighbour that names this node
// as the one it reports to (PredUp, SuccUp). A neighbour that has not said
// so yet is not counted; it holds its batches until this node has heard it
// (core's ringHello).
func (nb Neighborhood) Children() []Ref {
	var c []Ref
	up := nb.UpEdge()
	sibs := [...]Ref{Left: nb.SibL, Middle: nb.SibM, Right: nb.SibR}
	for _, k := range [...]Kind{Right, Left, Middle} {
		if p, _ := up.Parent(k, nb.SibL, nb.SibM); k != nb.Self.Kind && p.Point == nb.Self.Point {
			c = append(c, sibs[k])
		}
	}
	if nb.PredUp.Valid() && nb.PredUp.Point == nb.Self.Point {
		c = append(c, nb.Pred)
	}
	if nb.SuccUp.Valid() && nb.SuccUp.Point == nb.Self.Point && nb.Succ.ID != nb.Pred.ID {
		c = append(c, nb.Succ)
	}
	return c
}

// RouteState is the routing header of a message travelling to the node
// responsible for Target (its predecessor on the ring). BitsLeft counts
// the remaining De Bruijn hops; once zero, routing degenerates to a short
// linear walk. WalkDir (+1 successor, -1 predecessor, 0 undecided) keeps
// the walk-to-a-middle phase moving in one direction.
type RouteState struct {
	Target   fixpoint.Frac
	BitsLeft int
	Hops     int
	WalkDir  int8
}

// middleWalkNum / middleWalkDen is c, the price of every De Bruijn bit
// after the first: the expected number of hops between processes on the walk
// from a left or right node to the nearest middle node. The jump over the
// virtual edge that prepends the bit is free; the walk is not. Middle nodes
// are a third of the ring, so a node is one with probability 1/3. The walk
// takes one hop when a neighbour is a middle node (1 − 4/9 = 5/9), two when
// neither is but a node two hops away is (4/9 · 5/9), and otherwise (4/9 ·
// 4/9) two hops past nodes it knows are not and then 3 more in expectation:
// 5/9 · 1 + 4/9 · (5/9 · 2 + 4/9 · 5) = 55/27 ≈ 2.04. The first bit needs no
// walk, since a route starts at its own middle node. The constant is not
// delicate (EXPERIMENTS.md has the sweep from 1.5 to 4).
const middleWalkNum, middleWalkDen = 55, 27

// NewRoute prepares a route from a node with the given neighbourhood and
// chooses its bit count. ĝ, the mean of the gaps to predecessor and
// successor, is the local estimate of the gap between ring neighbours: 1/ĝ
// estimates the ring size w.h.p., and two samples of the (exponential) gap
// halve the estimate's variance at no cost, since a node knows both
// neighbours anyway.
//
// Where the bits land is known before the first hop. Prepending the k bits
// t1…tk of the target t from a middle node at label x lands at
// 0.t1…tk + x·2^−k, and the target is 0.t1…tk + frac(2^k·t)·2^−k, so the walk
// that closes the route is |x − frac(2^k·t)|·2^−k long, that over ĝ in gaps.
// x is the own middle node, where every route prepends its first bit, and
// each further bit costs the walk c to the next middle node (see
// middleWalkNum). The count is the k in [0, ⌈log2(1/ĝ)⌉ − 1] that
// minimises c·(k−1) + closing(k), closing(0) being the walk from here the
// shorter way round. The cap keeps a ring of one or two nodes at 0 bits and
// every count within Lemma 3's O(log n).
func (nb Neighborhood) NewRoute(target fixpoint.Frac) RouteState {
	self := nb.Self.Point.Label
	// Halve before adding: the two gaps of a two-node ring sum to the whole
	// circle, which a Frac cannot hold. Both distances wrap correctly.
	g := fixpoint.CWDist(nb.Pred.Point.Label, self)>>1 + fixpoint.CWDist(self, nb.Succ.Point.Label)>>1
	if g == 0 { // a node alone on the ring, both gaps the full circle
		return RouteState{Target: target}
	}
	// The costs are compared as distances on the ring, gaps times ĝ, in
	// exact arithmetic. With L = ⌈log2(1/ĝ)⌉, ĝ < 2^(1−L), so no cost
	// overflows: (k−1)·c·ĝ + 2^−k < 1 for every k < L. (price wraps only
	// where ĝ > 27/55, so L ≤ 2, and is then multiplied by k − 1 = 0.)
	price := g / middleWalkDen * middleWalkNum
	x := nb.SibM.Point.Label
	k, least := 0, min(fixpoint.CWDist(self, target), fixpoint.CCWDist(self, target))
	for bits := 1; bits < g.Log2Inv(); bits++ {
		y := target << bits // frac(2^bits·t)
		closing := max(x, y) - min(x, y)
		if cost := price*fixpoint.Frac(bits-1) + closing>>bits; cost < least {
			k, least = bits, cost
		}
	}
	return RouteState{Target: target, BitsLeft: k}
}

// NextHop decides the next routing step at the current node. If deliver is
// true the current node is responsible for the target and must consume the
// message; otherwise the message moves to next with the updated state.
//
// The node responsible for the target consumes the message wherever the
// route meets it, not only after the last bit: the bits are a means of
// getting near, and a route that is already there has no use for them.
func (nb Neighborhood) NextHop(rs RouteState) (next Ref, out RouteState, deliver bool) {
	out = rs
	out.Hops++
	if nb.responsible(rs.Target) {
		return Ref{ID: transport.None}, out, true
	}
	if rs.BitsLeft > 0 {
		if nb.Self.Kind == Middle {
			// One De Bruijn hop: prepend bit b of the target, i.e. jump to
			// the own left (b=0) or right (b=1) virtual node, whose label
			// is exactly (b + label)/2.
			// Bits are consumed from the least significant bit of the
			// k-prefix upward (t_k first, t_1 last) so that after all k
			// prepending hops the position is 0.t1 t2 … tk ….
			b := rs.Target.Bit(rs.BitsLeft)
			out.BitsLeft--
			out.WalkDir = 0
			if b == 0 {
				return nb.SibL, out, false
			}
			return nb.SibR, out, false
		}
		if rs.Hops == 0 && rs.WalkDir == 0 && nb.SibM.Valid() {
			// The route starts here, at a left or right node: the own middle
			// node is over a virtual edge, which costs no round, and a De
			// Bruijn route may start from any point (the start only sets the
			// low-order bits the closing walk corrects). NewRoute counted on
			// it. A neighbourhood without a middle sibling walks instead.
			return nb.SibM, out, false
		}
		// Walk linearly to a middle node; middles are one third of the ring,
		// so this costs O(1) expected steps. A walk that starts here takes
		// the side on which it can see a middle node when exactly one
		// neighbour is one; when neither is, the side on which exactly one
		// node two hops away is (PredPred, SuccSucc). Otherwise it heads for
		// q = frac(2^BitsLeft·t), the label from which the next bit lands the
		// route exactly where the target's bits say. A walk that drifts from
		// q moves the route's position by the drift halved at every bit
		// still to come, and the closing walk has to undo it. The direction
		// then travels in the message, so the walk cannot ping-pong between
		// two nodes that each prefer the other.
		//
		// The halving map is continuous on [0,1) but not across the 0/1
		// seam, so the walk must never wrap: it flips away from the seam
		// whenever the next edge would cross it, in either direction, and
		// the node it came from continues in the flipped direction too.
		// (Choosing a middle neighbour never picks the wrapping edge: the
		// ring's minimum is a left node and its maximum a right node. A
		// middle node two hops away may lie across the seam.)
		dir := rs.WalkDir
		if dir == 0 {
			middle := func(r Ref) bool { return r.Valid() && r.Kind == Middle }
			succM, predM := middle(nb.Succ), middle(nb.Pred)
			if !succM && !predM {
				succM, predM = middle(nb.SuccSucc), middle(nb.PredPred)
			}
			switch {
			case succM && !predM:
				dir = 1
			case predM && !succM:
				dir = -1
			case rs.Target<<rs.BitsLeft < nb.Self.Point.Label:
				dir = -1
			default:
				dir = 1
			}
		}
		if dir > 0 && nb.isWrapSucc() {
			dir = -1
		} else if dir < 0 && nb.isWrapPred() {
			dir = 1
		}
		out.WalkDir = dir
		if dir > 0 {
			return nb.Succ, out, false
		}
		return nb.Pred, out, false
	}
	// Linear phase: walk the shorter way round to the predecessor of the
	// target. This walk may take the wrapping edge.
	if fixpoint.CWDist(nb.Self.Point.Label, rs.Target) <= fixpoint.CCWDist(nb.Self.Point.Label, rs.Target) {
		return nb.Succ, out, false
	}
	return nb.Pred, out, false
}

// responsible reports whether this node's DHT interval [self, succ)
// contains the key.
func (nb Neighborhood) responsible(k fixpoint.Frac) bool {
	return fixpoint.InCWRange(k, nb.Self.Point.Label, nb.Succ.Point.Label)
}

// Responsible is the exported form of the DHT ownership test.
func (nb Neighborhood) Responsible(k fixpoint.Frac) bool { return nb.responsible(k) }

// Ring is a sorted snapshot of references. The protocol itself never uses
// it — nodes act on local neighbourhoods only — but bootstrap wiring and
// test oracles do.
type Ring struct {
	refs []Ref
}

// NewRing sorts the references into ring order.
func NewRing(refs []Ref) *Ring {
	r := &Ring{refs: append([]Ref(nil), refs...)}
	sort.Slice(r.refs, func(i, j int) bool { return r.refs[i].Point.Less(r.refs[j].Point) })
	return r
}

// Len returns the number of nodes on the ring.
func (r *Ring) Len() int { return len(r.refs) }

// At returns the i-th reference in sorted order.
func (r *Ring) At(i int) Ref { return r.refs[i] }

// Pred returns the ring predecessor of position i (wrapping).
func (r *Ring) Pred(i int) Ref { return r.refs[(i-1+len(r.refs))%len(r.refs)] }

// Succ returns the ring successor of position i (wrapping).
func (r *Ring) Succ(i int) Ref { return r.refs[(i+1)%len(r.refs)] }

// Min returns the leftmost node — the anchor.
func (r *Ring) Min() Ref { return r.refs[0] }

// ResponsibleFor returns the node owning key k: the predecessor of k.
func (r *Ring) ResponsibleFor(k fixpoint.Frac) Ref {
	// First node with label > k, then step back.
	i := sort.Search(len(r.refs), func(i int) bool { return r.refs[i].Point.Label > k })
	return r.refs[(i-1+len(r.refs))%len(r.refs)]
}

// IndexOf returns the position of the reference with the given point, or
// -1 when absent.
func (r *Ring) IndexOf(p Point) int {
	i := sort.Search(len(r.refs), func(i int) bool { return !r.refs[i].Point.Less(p) })
	if i < len(r.refs) && r.refs[i].Point == p {
		return i
	}
	return -1
}
