// Package ldb implements the Linearized De Bruijn network of the paper
// (§II-A, Definition 2): every process emulates three virtual nodes — a
// middle node m(v) with a pseudorandom label in [0,1), a left node
// l(v) = m(v)/2 and a right node r(v) = (m(v)+1)/2 — arranged on a sorted
// cycle with linear edges between consecutive nodes and virtual edges
// between nodes of the same process.
//
// The package provides the three local rules the protocol relies on:
//
//   - the aggregation-tree rules (§III-B, with the parent rule of a left
//     node changed, see below), purely from local information;
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
//     towards the point where the next bit should be prepended; it carries
//     its direction in the message and never crosses the 0/1 seam;
//   - delivery is at the first node responsible for the target, in any phase.
//
// Lemma 3's bound is unchanged; this is its constant (EXPERIMENTS.md, "The
// route at what a round costs").
//
// # The aggregation tree
//
// A middle node reports to its left sibling and a right node to its middle
// sibling, as in the paper. The paper's left node reports to its ring
// predecessor, so a process's depth grows by one inter-process edge per
// process to its left. Here a left node reports to whichever ring neighbour
// belongs to the process with the smaller left label (LeftOf), the
// predecessor on a tie and never over the 0/1 seam. LeftOf falls strictly
// along every edge between processes — the predecessor's is below the
// node's own label, and the successor is taken only below that — so the
// tree stays acyclic, rooted at the anchor, and covers every node. Parent
// reads the node's own neighbourhood; Children also reads the neighbours
// two hops away (PredPred, SuccSucc), since whether an adjacent left node
// reports here depends on its other neighbour.
//
// Under churn a process's nodes enter the ring one by one, and a middle or
// right node whose sibling parent is not a ring member yet has no way to
// the anchor (it is partial). No left node reports to a partial successor,
// and a left node whose predecessor is partial reports to its successor if
// that one's process sits further left than its own; only otherwise does it
// wait behind the partial predecessor, as under the paper's rule. LeftOf
// still falls along every edge between processes.
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
// right virtual node).
type Ref struct {
	ID    transport.NodeID
	Point Point
	Kind  Kind
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
// own identity, its ring neighbours, the neighbours two hops away, and the
// three virtual nodes of its process (its "siblings"; Self is one of them).
type Neighborhood struct {
	Self Ref
	Pred Ref
	Succ Ref
	// PredPred and SuccSucc are Pred's predecessor and Succ's successor, or
	// invalid while unknown. Only Children reads them, for their points.
	PredPred, SuccSucc Ref
	// The Partial flags mark nodes whose way to the anchor through their
	// process siblings is not complete yet: a middle or right node of a
	// joining process whose left (or middle) sibling is not a ring member
	// yet, since a process's nodes enter the ring one by one. A left node
	// reports to a partial neighbour only if it has no other choice.
	SelfPartial                      bool
	PredPartial, SuccPartial         bool
	PredPredPartial, SuccSuccPartial bool
	// SibL, SibM, SibR are l(v), m(v), r(v) of the owning process.
	SibL, SibM, SibR Ref
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

// Parent returns the aggregation-tree parent: a middle node's left
// sibling, a right node's middle sibling, and for a left node its ring
// successor or predecessor (reportsRight); the predecessor is the paper's
// rule (§III-B). ok is false exactly for the anchor, the tree root.
func (nb Neighborhood) Parent() (parent Ref, ok bool) {
	switch nb.Self.Kind {
	case Middle:
		return nb.SibL, true
	case Right:
		return nb.SibM, true
	default: // Left
		if nb.IsAnchor() {
			return Ref{ID: transport.None}, false
		}
		if reportsRight(nb.Self, nb.Pred, nb.Succ, nb.PredPartial, nb.SuccPartial, nb.isWrapSucc()) {
			return nb.Succ, true
		}
		return nb.Pred, true
	}
}

// reportsRight is the parent choice of a non-anchor left node with the
// given ring neighbours: its successor if the successor is not partial, the
// edge does not wrap, and the successor's process sits strictly further left
// than the predecessor's — or than the node's own, when the predecessor is
// partial and so has no way to the anchor yet.
func reportsRight(self, pred, succ Ref, predPartial, succPartial, succWraps bool) bool {
	if succWraps || succPartial {
		return false
	}
	bar := pred
	if predPartial {
		bar = self
	}
	return LeftOf(succ) < LeftOf(bar)
}

// Children returns the aggregation-tree children: the next virtual node of
// the same process, plus each adjacent left node whose Parent is this node —
// the successor unless it reports to its own successor, the predecessor if
// it reports here rather than to its own predecessor. Neither edge may wrap.
// An adjacent left node whose other neighbour is unknown (PredPred or
// SuccSucc invalid) is not counted: it holds its batches until this node
// knows (core's ringHello).
func (nb Neighborhood) Children() []Ref {
	var c []Ref
	switch nb.Self.Kind {
	case Middle:
		c = append(c, nb.SibR)
	case Left:
		c = append(c, nb.SibM)
	}
	if nb.Succ.Kind == Left && !nb.isWrapSucc() && nb.SuccSucc.Valid() {
		ssWraps := nb.SuccSucc.Point.Less(nb.Succ.Point) || nb.SuccSucc.ID == nb.Succ.ID
		if !reportsRight(nb.Succ, nb.Self, nb.SuccSucc, nb.SelfPartial, nb.SuccSuccPartial, ssWraps) {
			c = append(c, nb.Succ)
		}
	}
	if nb.Pred.Kind == Left && !nb.isWrapPred() && nb.PredPred.Valid() {
		predIsAnchor := nb.Pred.Point.Less(nb.PredPred.Point) || nb.PredPred.ID == nb.Pred.ID
		if !predIsAnchor && reportsRight(nb.Pred, nb.PredPred, nb.Self, nb.PredPredPartial, nb.SelfPartial, false) {
			c = append(c, nb.Pred)
		}
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

// middleWalkThirds is c, the price of every De Bruijn bit after the first,
// in thirds of a round: the expected number of hops between processes on
// the walk from a left or right node to the nearest middle node. The jump
// over the virtual edge that prepends the bit is free; the walk is not.
// Middle nodes are a third of the ring, so a neighbour is one with
// probability 1/3. The walk takes one hop when the successor is a middle
// node (1/3) or else the predecessor is (2/3 · 1/3); otherwise (4/9) it
// steps to a neighbour and walks on, 3 more hops in expectation:
// 5/9 · 1 + 4/9 · 4 = 7/3. The first bit needs no walk, since a route
// starts at its own middle node. The constant is not delicate
// (EXPERIMENTS.md has the sweep from 1.5 to 4).
const middleWalkThirds = 7

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
// middleWalkThirds). The count is the k in [0, ⌈log2(1/ĝ)⌉ − 1] that
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
	// where ĝ > 3/7, so L ≤ 2, and is then multiplied by k − 1 = 0.)
	price := g / 3 * middleWalkThirds
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
		// neighbour is one. When both are, or neither is, it heads for
		// q = frac(2^BitsLeft·t), the label from which the next bit lands
		// the route exactly where the target's bits say. A walk that drifts
		// from q moves the route's position by the drift halved at every
		// bit still to come, and the closing walk has to undo it. The
		// direction then travels in the message, so the walk cannot
		// ping-pong between two nodes that each prefer the other.
		//
		// The halving map is continuous on [0,1) but not across the 0/1
		// seam, so the walk must never wrap: it flips away from the seam
		// whenever the next edge would cross it, in either direction, and
		// the node it came from continues in the flipped direction too.
		// (Choosing a middle neighbour never picks the wrapping edge: the
		// ring's minimum is a left node and its maximum a right node.)
		dir := rs.WalkDir
		if dir == 0 {
			succM, predM := nb.Succ.Kind == Middle, nb.Pred.Kind == Middle
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
