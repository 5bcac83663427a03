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
//   - a hop to a node two hops away (read from a ring neighbour's View)
//     costs the round a hop to a neighbour does, so the walk to a middle
//     node skips a next node that is not one, and the closing walk goes two
//     nodes a hop, never past the owner;
//   - delivery is at the first node responsible for the target, in any
//     phase, and a node that can see the owner — its predecessor, its
//     successor or its predecessor's predecessor — sends the message
//     straight there, in any phase.
//
// Lemma 3's bound is unchanged; this is its constant (EXPERIMENTS.md, "The
// route at what a round costs", "Read the whole neighbourhood" and "Route
// over the two-hop view").
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
// every node. The left node works the up edge out from its own ring edges
// and what its middle sibling told of its own (the Edges of its View), its
// siblings act on its word (View.Word), and it hands the edge to its middle
// node only once that one has confirmed (ActingUp), so the two never report
// to each other. A node counts a ring neighbour as a child when that
// neighbour said it reports here (View.Told).
//
// # The neighbourhood
//
// A node keeps what it knows of its ring neighbours and siblings as one
// Neighborhood: a View per edge, what the node at its far end last said.
// Every rule reads the stored views in place, through a pointer, with the
// node itself passed beside them, so a route hop copies nothing.
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

// Neighborhood is what a virtual node knows of the topology around it, kept
// as it hears it under churn: its ring neighbours Pred and Succ, the three
// virtual nodes of its process SibL, SibM and SibR (its "siblings", the node
// itself one of them), which of those are ring members (SibIn, indexed by
// Kind), and what its ring neighbours and its left and middle siblings last
// said (PredView, SuccView, and SibViews indexed by Kind; the entry of the
// node's own kind is not read, except a left node's Word, which is its own
// word). The node itself is not part of it: every rule takes it as self.
//
// The rules read everything in place. The nodes two hops away are
// PredView.Edges.Pred and SuccView.Edges.Succ, invalid while unknown: NextHop
// sends to them as to a neighbour, in the same round, and reads their kinds,
// and a stale one is as safe as a stale neighbour, since the node a message
// reaches decides delivery. The process is whole when all three of its nodes
// are ring members. A middle or right node acts on the up edge its left node
// last told (SibViews[Left].Word, UpEdge worked out there; Holder Left and To
// invalid while untold).
//
// RingSeq numbers what the node tells its ring neighbours and siblings. Up
// is the up edge the node acts on (ActingUp), worked out again whenever an
// edge it is read from changes and kept, so that where the node reports and
// what its hellos say cannot differ; UpSeq is, at a left node whose process's
// up edge is its middle node's, the pair number that first told the middle
// node so, −1 otherwise: the left node reports to its middle node only once
// that one has confirmed it (SibViews[Middle].Seen ≥ UpSeq). The
// neighbourhood is one value, so a leave handoff, a snapshot and a restore
// carry it whole; its fields are exported because it travels in messages
// and sits in node images.
type Neighborhood struct {
	Pred, Succ         Ref
	SibL, SibM, SibR   Ref
	SibIn              [3]bool
	RingSeq            int64
	PredView, SuccView View
	SibViews           [2]View
	Up                 Up
	UpSeq              int64
}

// View is what the node at the other end of an edge, a ring neighbour or a
// process sibling, last said: its ring edges with their partial flags,
// whether it is partial, the node it reports to when it holds its process's
// up edge (Told, the up edge it acts on as ring neighbours see it; invalid
// otherwise), and the process's up edge as its left node works it out
// (Word), under its pair number Seq, −1 while it has said nothing; Seen is
// the newest of the holder's own pair numbers it has confirmed. A left
// node's word and the edge it acts on differ while its middle node has not
// confirmed the word: ring neighbours read Told, siblings Word.
//
// A partial node has no way to the anchor through its process siblings yet:
// a middle or right node of a joining process whose left (or middle) sibling
// is not a ring member yet, since a process's nodes enter the ring one by
// one. No up edge leads to a partial node where there is a choice.
type View struct {
	Edges   Edges
	Partial bool
	Told    Ref
	Word    Up
	Seq     int64
	Seen    int64
}

// Unknown is the view of a node that has said nothing yet.
var Unknown = View{
	Edges: Edges{Pred: Ref{ID: transport.None}, Succ: Ref{ID: transport.None}},
	Told:  Ref{ID: transport.None},
	Word:  Up{To: Ref{ID: transport.None}},
	Seq:   -1, Seen: -1,
}

// Edges is what a node tells its process siblings of its ring edges: its
// ring neighbours, invalid while unknown, and whether each is partial.
type Edges struct {
	Pred, Succ               Ref
	PredPartial, SuccPartial bool
}

// Redirect rewrites every reference to old as new and reports whether there
// was one. A redirect moves no point, and the replacement continues the pair
// numbers of the node it replaces, so the views stay as they are.
func (nb *Neighborhood) Redirect(old, new Ref) (hit bool) {
	rw := func(r *Ref) {
		if r.ID == old.ID {
			*r, hit = new, true
		}
	}
	rw(&nb.Pred)
	rw(&nb.Succ)
	rw(&nb.SibL)
	rw(&nb.SibM)
	rw(&nb.SibR)
	rw(&nb.Up.To)
	for _, e := range nb.Ends() {
		rw(&e.View.Edges.Pred)
		rw(&e.View.Edges.Succ)
		rw(&e.View.Told)
		rw(&e.View.Word.To)
	}
	return hit
}

// End is one end of a node's edges, with the view of the node there.
type End struct {
	To   Ref
	View *View
}

// Ends lists the ring neighbours, then the left and middle siblings, each
// with its view (a right sibling's is never read).
func (nb *Neighborhood) Ends() [4]End {
	return [4]End{{nb.Pred, &nb.PredView}, {nb.Succ, &nb.SuccView}, {nb.SibL, &nb.SibViews[Left]}, {nb.SibM, &nb.SibViews[Middle]}}
}

// IsAnchor reports whether self is the leftmost node of the ring, detected
// purely locally: the predecessor wraps around (has a larger point). The
// anchor is always a left virtual node (the minimum left label is half the
// minimum middle label).
func (nb *Neighborhood) IsAnchor(self Ref) bool {
	return self.Point.Less(nb.Pred.Point) || self.ID == nb.Pred.ID
}

// isWrapSucc reports whether the successor edge wraps around the ring.
func (nb *Neighborhood) isWrapSucc(self Ref) bool {
	return nb.Succ.Point.Less(self.Point) || nb.Succ.ID == self.ID
}

// edges returns the ring edges of the process's node of kind k: self's own,
// or what that sibling last told.
func (nb *Neighborhood) edges(self Ref, k Kind) Edges {
	if k == self.Kind {
		return Edges{Pred: nb.Pred, Succ: nb.Succ, PredPartial: nb.PredView.Partial, SuccPartial: nb.SuccView.Partial}
	}
	return nb.SibViews[k].Edges
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
func (nb *Neighborhood) UpEdge(self Ref) Up {
	pred := nb.edges(self, Left).Pred
	if !pred.Valid() || !pred.Point.Less(nb.SibL.Point) {
		return Up{Holder: Left, To: Ref{ID: transport.None}}
	}
	up, best := Up{Holder: Left, To: pred}, LeftOf(nb.SibL)
	kinds := []Kind{Left, Middle}
	if nb.SibIn != [3]bool{true, true, true} {
		kinds = kinds[:1]
	}
	for _, k := range kinds {
		from, e := [...]Ref{Left: nb.SibL, Middle: nb.SibM}[k], nb.edges(self, k)
		if e.Pred.Valid() && e.Pred.Point.Less(from.Point) && !e.PredPartial && LeftOf(e.Pred) < best {
			up, best = Up{Holder: k, To: e.Pred}, LeftOf(e.Pred)
		}
		if e.Succ.Valid() && from.Point.Less(e.Succ.Point) && !e.SuccPartial && LeftOf(e.Succ) < best {
			up, best = Up{Holder: k, To: e.Succ}, LeftOf(e.Succ)
		}
	}
	return up
}

// ActingUp returns the up edge self acts on. The left node works the
// process's up edge out (UpEdge) and its siblings act on its word
// (SibViews[Left].Word), so the triad has one decider. A left node that hands
// the edge to its middle node goes on reporting to its predecessor until the
// middle node has confirmed (SibViews[Middle].Seen ≥ UpSeq): the middle node
// reports to its left sibling until it hears, and the two must never report
// to each other. Every other change takes effect at the left node at once,
// since the middle node's old word sends it up and out of the triad. Any up
// edge the triad acts on, current or not, leads to a process whose left
// label is below its own, so the tree stays acyclic while the word travels.
func (nb *Neighborhood) ActingUp(self Ref) Up {
	if self.Kind != Left {
		return nb.SibViews[Left].Word
	}
	up := nb.UpEdge(self)
	if up.Holder == Middle && nb.SibViews[Middle].Seen < nb.UpSeq {
		return Up{Holder: Left, To: nb.Pred}
	}
	return up
}

// Parent returns self's aggregation-tree parent (Up.Parent). ok is false
// exactly for the anchor, the tree root.
func (nb *Neighborhood) Parent(self Ref) (parent Ref, ok bool) {
	return nb.ActingUp(self).Parent(self.Kind, nb.SibL, nb.SibM)
}

// Children returns self's aggregation-tree children: the siblings that
// report to it (see Parent), plus each ring neighbour that names it as the
// one it reports to (View.Told). A neighbour that has not said so yet is not
// counted; it holds its batches until self has heard it (core's hello).
func (nb *Neighborhood) Children(self Ref) []Ref {
	var c []Ref
	up := nb.ActingUp(self)
	sibs := [...]Ref{Left: nb.SibL, Middle: nb.SibM, Right: nb.SibR}
	for _, k := range [...]Kind{Right, Left, Middle} {
		if p, _ := up.Parent(k, nb.SibL, nb.SibM); k != self.Kind && p.Point == self.Point {
			c = append(c, sibs[k])
		}
	}
	if predUp := nb.PredView.Told; predUp.Valid() && predUp.Point == self.Point {
		c = append(c, nb.Pred)
	}
	if succUp := nb.SuccView.Told; succUp.Valid() && succUp.Point == self.Point && nb.Succ.ID != nb.Pred.ID {
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
// are a third of the ring, so a node is one with probability 1/3, and a hop
// may go to a node two hops away (NextHop). The walk takes one hop when a
// neighbour is a middle node (1 − 4/9 = 5/9), one when neither is but a node
// two hops away is (4/9 · 5/9), and otherwise (4/9 · 4/9) one hop past a node
// it knows is not one to another it knows is not, and from there
// 1/(1 − 4/9) = 9/5 in expectation, each hop reaching the next node if it is
// a middle node, else the one after it: 5/9 · 1 + 4/9 · (5/9 · 1 + 4/9 ·
// (1 + 9/5)) = 61/45 ≈ 1.36. The first bit needs no walk, since a route
// starts at its own middle node. The constant is not delicate
// (EXPERIMENTS.md has the sweep from 1.5 to 4, and "Route over the two-hop
// view" the one from 1.36 to 3.5).
const middleWalkNum, middleWalkDen = 61, 45

// NewRoute prepares a route from self and chooses its bit count. ĝ, the mean of the gaps to predecessor and
// successor, is the local estimate of the gap between ring neighbours: 1/ĝ
// estimates the ring size w.h.p., and two samples of the (exponential) gap
// halve the estimate's variance at no cost, since a node knows both
// neighbours anyway.
//
// Where the bits land is known before the first hop. Prepending the k bits
// t1…tk of the target t from a middle node at label x lands at
// 0.t1…tk + x·2^−k, and the target is 0.t1…tk + frac(2^k·t)·2^−k, so the walk
// that closes the route is |x − frac(2^k·t)|·2^−k long, that over ĝ in gaps,
// and it takes half as many hops, since every hop goes two nodes on
// (NextHop). x is the own middle node, where every route prepends its first
// bit, and each further bit costs the walk c to the next middle node (see
// middleWalkNum). The count is the k in [0, ⌈log2(1/ĝ)⌉ − 1] that
// minimises c·(k−1) + closing(k)/2, closing(0) being the walk from here the
// shorter way round. The cap keeps a ring of one or two nodes at 0 bits and
// every count within Lemma 3's O(log n).
func (nb *Neighborhood) NewRoute(self Ref, target fixpoint.Frac) RouteState {
	here := self.Point.Label
	// Halve before adding: the two gaps of a two-node ring sum to the whole
	// circle, which a Frac cannot hold. Both distances wrap correctly.
	g := fixpoint.CWDist(nb.Pred.Point.Label, here)>>1 + fixpoint.CWDist(here, nb.Succ.Point.Label)>>1
	if g == 0 { // a node alone on the ring, both gaps the full circle
		return RouteState{Target: target}
	}
	// The costs are compared as distances on the ring, gaps times ĝ, in
	// exact arithmetic. With L = ⌈log2(1/ĝ)⌉, ĝ < 2^(1−L), so no cost
	// overflows: (k−1)·c·ĝ + 2^−k < 1 for every k < L. (price wraps only
	// where ĝ > 45/61, so L = 1, and is then never read.)
	price := g / middleWalkDen * middleWalkNum
	x := nb.SibM.Point.Label
	k, least := 0, min(fixpoint.CWDist(here, target), fixpoint.CCWDist(here, target))>>1
	for bits := 1; bits < g.Log2Inv(); bits++ {
		y := target << bits // frac(2^bits·t)
		closing := max(x, y) - min(x, y)
		if cost := price*fixpoint.Frac(bits-1) + closing>>(bits+1); cost < least {
			k, least = bits, cost
		}
	}
	return RouteState{Target: target, BitsLeft: k}
}

// NextHop decides the next routing step at self. If deliver is true self is
// responsible for the target and must consume the message; otherwise the
// message moves to next with the updated state.
//
// The node responsible for the target consumes the message wherever the
// route meets it, not only after the last bit: the bits are a means of
// getting near, and a route that is already there has no use for them. And
// a node that can see the owner, its ring neighbour or its predecessor's
// predecessor, sends the message straight there (owner), in any phase: a
// hop to a node two hops away costs the round a hop to a neighbour does.
func (nb *Neighborhood) NextHop(self Ref, rs RouteState) (next Ref, out RouteState, deliver bool) {
	out = rs
	out.Hops++
	if nb.Responsible(self, rs.Target) {
		return Ref{ID: transport.None}, out, true
	}
	if to, ok := nb.owner(self, rs.Target); ok {
		return to, out, false
	}
	predPred, succSucc := nb.PredView.Edges.Pred, nb.SuccView.Edges.Succ
	if rs.BitsLeft > 0 {
		if self.Kind == Middle {
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
		// node two hops away is (predPred, succSucc). Otherwise it heads for
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
				succM, predM = middle(succSucc), middle(predPred)
			}
			switch {
			case succM && !predM:
				dir = 1
			case predM && !succM:
				dir = -1
			case rs.Target<<rs.BitsLeft < self.Point.Label:
				dir = -1
			default:
				dir = 1
			}
		}
		if dir > 0 && nb.isWrapSucc(self) {
			dir = -1
		} else if dir < 0 && nb.IsAnchor(self) {
			dir = 1
		}
		out.WalkDir = dir
		// When the next node that way is not a middle node, the walk goes
		// on to the node after it, if that is known and the edge to it does
		// not cross the seam either: one hop where the walk would take two,
		// landing on a middle node or past a node known not to be one.
		near, far := nb.Succ, succSucc
		if dir < 0 {
			near, far = nb.Pred, predPred
		}
		if near.Kind != Middle && far.Valid() && (dir > 0) == near.Point.Less(far.Point) {
			return far, out, false
		}
		return near, out, false
	}
	// Closing walk: the shorter way round to the predecessor of the target,
	// two nodes at a time. The owner is not among the nodes this node can see
	// (owner), so the node two hops away is at most the owner. This walk may
	// take the wrapping edge.
	near, far := nb.Succ, succSucc
	if fixpoint.CWDist(self.Point.Label, rs.Target) > fixpoint.CCWDist(self.Point.Label, rs.Target) {
		near, far = nb.Pred, predPred
	}
	if far.Valid() && far.ID != self.ID {
		return far, out, false
	}
	return near, out, false
}

// owner returns the node responsible for the key when it is one self can
// see: its predecessor, its successor or its predecessor's predecessor, each
// owning the interval up to the next node it knows. (Its successor's
// successor's interval ends at a node it does not know.)
func (nb *Neighborhood) owner(self Ref, k fixpoint.Frac) (Ref, bool) {
	for _, c := range [...]struct{ from, to Ref }{
		{nb.Pred, self}, {nb.Succ, nb.SuccView.Edges.Succ}, {nb.PredView.Edges.Pred, nb.Pred},
	} {
		if c.from.Valid() && c.to.Valid() && c.from.ID != self.ID && c.from.ID != c.to.ID &&
			fixpoint.InCWRange(k, c.from.Point.Label, c.to.Point.Label) {
			return c.from, true
		}
	}
	return Ref{ID: transport.None}, false
}

// Responsible reports whether self's DHT interval [self, succ) contains the
// key.
func (nb *Neighborhood) Responsible(self Ref, k fixpoint.Frac) bool {
	return fixpoint.InCWRange(k, self.Point.Label, nb.Succ.Point.Label)
}

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
