package ldb

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"skueue/internal/fixpoint"
	"skueue/internal/sim"
	"skueue/internal/xrand"
)

// testNet builds a static LDB over n processes and exposes neighbourhoods
// the way live nodes would see them.
type testNet struct {
	ring *Ring
	// sibs maps process id -> [l, m, r] refs.
	sibs map[uint64][3]Ref
	// proc maps a node id -> its process id.
	proc map[sim.NodeID]uint64
	// index maps a node id -> its ring position.
	index map[sim.NodeID]int
}

func buildNet(t testing.TB, n int, seed int64) *testNet {
	t.Helper()
	h := xrand.NewHasher(seed, "label")
	net := &testNet{sibs: make(map[uint64][3]Ref), proc: make(map[sim.NodeID]uint64), index: make(map[sim.NodeID]int)}
	var refs []Ref
	for p := 0; p < n; p++ {
		pid := uint64(p)
		l, m, r := ProcessPoints(h, pid)
		rl := Ref{ID: sim.NodeID(p*3 + 0), Point: l, Kind: Left}
		rm := Ref{ID: sim.NodeID(p*3 + 1), Point: m, Kind: Middle}
		rr := Ref{ID: sim.NodeID(p*3 + 2), Point: r, Kind: Right}
		net.sibs[pid] = [3]Ref{rl, rm, rr}
		for _, ref := range []Ref{rl, rm, rr} {
			net.proc[ref.ID] = pid
			refs = append(refs, ref)
		}
	}
	net.ring = NewRing(refs)
	for i := 0; i < net.ring.Len(); i++ {
		net.index[net.ring.At(i).ID] = i
	}
	return net
}

// node is a node of a test net: its reference and its neighbourhood, every
// view in it exact.
type node struct {
	Self Ref
	Neighborhood
}

func (net *testNet) neighborhood(i int) node {
	return net.partialNeighborhood(i, nil)
}

// partialNeighborhood is node i's neighbourhood with the Partial flags read
// from partial, the same for every node that looks at a given one. A process
// with a partial node is not whole.
func (net *testNet) partialNeighborhood(i int, partial map[sim.NodeID]bool) node {
	nb := net.bare(i, partial)
	nb.PredView.Told = net.up(net.index[nb.Pred.ID], partial)
	nb.SuccView.Told = net.up(net.index[nb.Succ.ID], partial)
	return nb
}

// bare is node i's neighbourhood without what its neighbours say they report
// to, which Parent does not read.
func (net *testNet) bare(i int, partial map[sim.NodeID]bool) node {
	self := net.ring.At(i)
	s := net.sibs[net.proc[self.ID]]
	said := func(id sim.NodeID) View {
		j := net.index[id]
		p, q := net.ring.Pred(j), net.ring.Succ(j)
		e := Edges{Pred: p, Succ: q, PredPartial: partial[p.ID], SuccPartial: partial[q.ID]}
		return View{Edges: e, Partial: partial[id], Told: Ref{ID: sim.None}}
	}
	nb := node{Self: self, Neighborhood: Neighborhood{
		Pred: net.ring.Pred(i), Succ: net.ring.Succ(i),
		SibL: s[0], SibM: s[1], SibR: s[2],
		SibIn:    [3]bool{true, !partial[s[1].ID], !partial[s[2].ID]},
		PredView: said(net.ring.Pred(i).ID), SuccView: said(net.ring.Succ(i).ID),
		SibViews: [2]View{said(s[0].ID), said(s[1].ID)},
		UpSeq:    -1, // a static ring: every word has arrived
	}}
	if self.Kind != Left {
		l := net.bare(net.index[s[0].ID], partial)
		nb.SibViews[Left].Word = l.UpEdge(l.Self)
	}
	return nb
}

// up is what node j tells its ring neighbours it reports to: its parent when
// that is a node of another process.
func (net *testNet) up(j int, partial map[sim.NodeID]bool) Ref {
	nb := net.bare(j, partial)
	if p, ok := nb.Parent(nb.Self); ok && net.proc[p.ID] != net.proc[nb.Self.ID] {
		return p
	}
	return Ref{ID: sim.None}
}

func (net *testNet) neighborhoodOf(id sim.NodeID) node {
	i, ok := net.index[id]
	if !ok {
		panic("node not on ring")
	}
	return net.neighborhood(i)
}

// ringAround is a neighbourhood that knows the ring two nodes each way: pp,
// pred, succ and ss in ring order.
func ringAround(pp, pred, succ, ss Ref) Neighborhood {
	return Neighborhood{Pred: pred, Succ: succ, PredView: View{Edges: Edges{Pred: pp}}, SuccView: View{Edges: Edges{Succ: ss}}}
}

func TestProcessPointsDefinition(t *testing.T) {
	h := xrand.NewHasher(1, "label")
	for pid := uint64(0); pid < 200; pid++ {
		l, m, r := ProcessPoints(h, pid)
		if l.Label != m.Label.Halve() {
			t.Fatalf("pid %d: l != m/2", pid)
		}
		if r.Label != m.Label.HalvePlus() {
			t.Fatalf("pid %d: r != (m+1)/2", pid)
		}
		if l.Label >= fixpoint.Half {
			t.Fatalf("pid %d: left label %v not in [0,0.5)", pid, l.Label)
		}
		if r.Label < fixpoint.Half {
			t.Fatalf("pid %d: right label %v not in [0.5,1)", pid, r.Label)
		}
		if l.Tie == m.Tie || m.Tie == r.Tie || l.Tie == r.Tie {
			t.Fatalf("pid %d: tie collision", pid)
		}
	}
}

func TestKindString(t *testing.T) {
	if Left.String() != "L" || Middle.String() != "M" || Right.String() != "R" || Kind(9).String() != "?" {
		t.Errorf("Kind.String wrong")
	}
}

func TestPointOrderTotal(t *testing.T) {
	a := Point{Label: 5, Tie: 1}
	b := Point{Label: 5, Tie: 2}
	c := Point{Label: 6, Tie: 0}
	if !a.Less(b) || b.Less(a) {
		t.Errorf("tie ordering broken")
	}
	if !b.Less(c) || !a.Less(c) {
		t.Errorf("label ordering broken")
	}
	if !a.Equal(a) || a.Equal(b) {
		t.Errorf("equality broken")
	}
}

func TestRingSorted(t *testing.T) {
	net := buildNet(t, 100, 2)
	for i := 1; i < net.ring.Len(); i++ {
		if !net.ring.At(i - 1).Point.Less(net.ring.At(i).Point) {
			t.Fatalf("ring not strictly sorted at %d", i)
		}
	}
	if net.ring.Len() != 300 {
		t.Fatalf("ring has %d nodes, want 300", net.ring.Len())
	}
}

func TestRingPredSuccWrap(t *testing.T) {
	net := buildNet(t, 10, 3)
	n := net.ring.Len()
	if net.ring.Pred(0) != net.ring.At(n-1) {
		t.Errorf("Pred(0) should wrap to max")
	}
	if net.ring.Succ(n-1) != net.ring.At(0) {
		t.Errorf("Succ(max) should wrap to min")
	}
}

func TestRingResponsibleFor(t *testing.T) {
	net := buildNet(t, 50, 4)
	rng := xrand.New(99)
	for trial := 0; trial < 500; trial++ {
		k := rng.Frac()
		owner := net.ring.ResponsibleFor(k)
		// Verify against the definition: owner <= k < succ(owner) cyclically.
		i := net.ring.IndexOf(owner.Point)
		succ := net.ring.Succ(i)
		if !fixpoint.InCWRange(k, owner.Point.Label, succ.Point.Label) {
			t.Fatalf("key %v assigned to %v whose interval ends at %v", k, owner, succ)
		}
	}
}

func TestRingIndexOf(t *testing.T) {
	net := buildNet(t, 20, 5)
	for i := 0; i < net.ring.Len(); i++ {
		if net.ring.IndexOf(net.ring.At(i).Point) != i {
			t.Fatalf("IndexOf roundtrip failed at %d", i)
		}
	}
	if net.ring.IndexOf(Point{Label: 12345, Tie: 999}) != -1 {
		t.Errorf("IndexOf should return -1 for absent point")
	}
}

func TestAnchorIsGlobalMinAndLeft(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 200} {
		net := buildNet(t, n, int64(n))
		anchors := 0
		for i := 0; i < net.ring.Len(); i++ {
			nb := net.neighborhood(i)
			if nb.IsAnchor(nb.Self) {
				anchors++
				if i != 0 {
					t.Fatalf("n=%d: node at ring index %d believes it is the anchor", n, i)
				}
				if nb.Self.Kind != Left {
					t.Fatalf("n=%d: anchor is a %s node, want L", n, nb.Self.Kind)
				}
			}
		}
		if anchors != 1 {
			t.Fatalf("n=%d: %d anchors", n, anchors)
		}
	}
}

func TestParentChildConsistency(t *testing.T) {
	// parent(v) = u  <=>  v in Children(u); exactly one root.
	for _, n := range []int{1, 2, 5, 50, 300} {
		net := buildNet(t, n, int64(n)*7)
		parentOf := make(map[sim.NodeID]Ref)
		childless := 0
		roots := 0
		for i := 0; i < net.ring.Len(); i++ {
			nb := net.neighborhood(i)
			if p, ok := nb.Parent(nb.Self); ok {
				parentOf[nb.Self.ID] = p
			} else {
				roots++
			}
			if len(nb.Children(nb.Self)) == 0 {
				childless++
			}
		}
		if roots != 1 {
			t.Fatalf("n=%d: %d roots", n, roots)
		}
		// Check symmetry.
		for i := 0; i < net.ring.Len(); i++ {
			nb := net.neighborhood(i)
			for _, c := range nb.Children(nb.Self) {
				if got := parentOf[c.ID]; got.ID != nb.Self.ID {
					t.Fatalf("n=%d: child %v of %v has parent %v", n, c, nb.Self, got)
				}
			}
			if p, ok := nb.Parent(nb.Self); ok {
				pnb := net.neighborhoodOf(p.ID)
				found := false
				for _, c := range pnb.Children(pnb.Self) {
					if c.ID == nb.Self.ID {
						found = true
					}
				}
				if !found {
					t.Fatalf("n=%d: node %v not in children of its parent %v", n, nb.Self, p)
				}
			}
		}
	}
}

func TestTreeReachesRootAndHeight(t *testing.T) {
	for _, n := range []int{1, 10, 100, 1000} {
		net := buildNet(t, n, int64(n)+11)
		maxDepth := 0
		for i := 0; i < net.ring.Len(); i++ {
			depth := 0
			nb := net.neighborhood(i)
			for {
				p, ok := nb.Parent(nb.Self)
				if !ok {
					break
				}
				depth++
				if depth > net.ring.Len() {
					t.Fatalf("n=%d: parent chain from node %d does not terminate", n, i)
				}
				nb = net.neighborhoodOf(p.ID)
			}
			if depth > maxDepth {
				maxDepth = depth
			}
		}
		if n >= 10 {
			bound := int(8 * math.Log2(float64(3*n)))
			if maxDepth > bound {
				t.Errorf("n=%d: tree height %d exceeds %d (≈8·log2(3n))", n, maxDepth, bound)
			}
		}
	}
}

func TestLeftOfFallsAlongTreeEdges(t *testing.T) {
	// LeftOf is the process's left label whichever of its nodes it is read
	// from, and it falls strictly along every tree edge between processes:
	// the tree is acyclic, and the anchor's process is its root.
	for _, n := range []int{1, 2, 3, 7, 150} {
		net := buildNet(t, n, 12+int64(n))
		for i := 0; i < net.ring.Len(); i++ {
			nb := net.neighborhood(i)
			if LeftOf(nb.Self) != nb.SibL.Point.Label {
				t.Fatalf("n=%d: LeftOf(%v) = %v, its left sibling is at %v", n, nb.Self, LeftOf(nb.Self), nb.SibL)
			}
			p, ok := nb.Parent(nb.Self)
			if !ok || net.proc[p.ID] == net.proc[nb.Self.ID] {
				continue
			}
			if LeftOf(p) >= LeftOf(nb.Self) {
				t.Fatalf("n=%d: parent %v of %v: left label %v not below %v", n, p, nb.Self, LeftOf(p), LeftOf(nb.Self))
			}
		}
	}
}

func TestRightNodeChildrenAreForeign(t *testing.T) {
	// A right node has no sibling child. A child of another process hangs
	// off it over a ring edge that does not wrap: its predecessor, a left or
	// middle node whose process reports over its successor edge, or its
	// successor, a middle node whose process reports over its predecessor
	// edge. Its own edges never carry its process's up edge.
	adopted := map[Kind]int{}
	for seed := int64(0); seed < 40; seed++ {
		net := buildNet(t, 80, 13+seed)
		for i := 0; i < net.ring.Len(); i++ {
			nb := net.neighborhood(i)
			if nb.Self.Kind != Right {
				continue
			}
			for _, c := range nb.Children(nb.Self) {
				pred := c.ID == nb.Pred.ID && !nb.IsAnchor(nb.Self) && c.Kind != Right
				succ := c.ID == nb.Succ.ID && !nb.isWrapSucc(nb.Self) && c.Kind == Middle
				if net.proc[c.ID] == net.proc[nb.Self.ID] || !pred && !succ {
					t.Fatalf("seed %d: right node %v has child %v (pred %v, succ %v)", seed, nb.Self, c, nb.Pred, nb.Succ)
				}
				adopted[c.Kind]++
			}
		}
	}
	if adopted[Left] == 0 || adopted[Middle] == 0 {
		t.Fatalf("right nodes of 40 rings adopted %v; the test exercises nothing", adopted)
	}
}

func TestPartialNodesAreAvoided(t *testing.T) {
	// A process whose nodes enter the ring one by one: its middle and right
	// nodes while its left node is not a ring member, or its right node while
	// its middle one is not, have no way to the anchor, and the process is
	// not whole. Mark such nodes on random rings. Parent and children still
	// agree and LeftOf still falls along every edge between processes. A
	// whole process reports to a partial node only when none of its four
	// edges qualifies, and then as the paper's rule has it, from its left
	// node to its predecessor. A process that is not whole reports from its
	// left node over one of that node's own edges, never to a partial
	// successor, and to its successor whenever that one's process sits
	// further left than its own while its predecessor is partial.
	around, broken, held := 0, 0, 0
	for seed := int64(0); seed < 40; seed++ {
		net := buildNet(t, 64, 500+seed)
		rng := xrand.New(seed)
		partial := map[sim.NodeID]bool{}
		for _, sibs := range net.sibs {
			switch rng.Intn(4) {
			case 0: // the left node is missing
				partial[sibs[1].ID], partial[sibs[2].ID] = true, true
			case 1: // the middle node is missing
				partial[sibs[2].ID] = true
			}
		}
		nbs := make(map[sim.NodeID]*node)
		for i := 0; i < net.ring.Len(); i++ {
			nb := net.partialNeighborhood(i, partial)
			nbs[nb.Self.ID] = &nb
		}
		for id, nb := range nbs {
			for _, c := range nb.Children(nb.Self) {
				if p, _ := nbs[c.ID].Parent(c); p.ID != id {
					t.Fatalf("seed %d: %v counts %v as a child, whose parent is %v", seed, nb.Self, c, p)
				}
				if partial[id] && net.proc[c.ID] != net.proc[id] && c.ID != nb.Succ.ID {
					t.Fatalf("seed %d: partial %v has its predecessor %v for a child", seed, nb.Self, c)
				}
			}
			p, ok := nb.Parent(nb.Self)
			if !ok {
				continue
			}
			if !slices.ContainsFunc(nbs[p.ID].Children(p), func(c Ref) bool { return c.ID == id }) {
				t.Fatalf("seed %d: %v reports to %v, which does not count it", seed, nb.Self, p)
			}
			foreign := net.proc[p.ID] != net.proc[id]
			if foreign && LeftOf(p) >= LeftOf(nb.Self) {
				t.Fatalf("seed %d: parent %v of %v: left label %v not below %v", seed, p, nb.Self, LeftOf(p), LeftOf(nb.Self))
			}
			if foreign && partial[p.ID] && (nb.Self.Kind != Left || p.ID != nb.Pred.ID) {
				t.Fatalf("seed %d: %v reports to partial %v, which is not its left node's predecessor", seed, nb.Self, p)
			}
			if nb.SibIn == [3]bool{true, true, true} {
				if foreign && partial[p.ID] {
					held++
				}
				continue
			}
			// A process that is not whole.
			if nb.Self.Kind == Middle && p.ID != nb.SibL.ID || nb.Self.Kind == Left && p.ID != nb.Pred.ID && p.ID != nb.Succ.ID {
				t.Fatalf("seed %d: %v of a process that is not whole reports to %v", seed, nb.Self, p)
			}
			if nb.Self.Kind != Left {
				continue
			}
			broken++
			if nb.PredView.Partial && !nb.SuccView.Partial && !nb.isWrapSucc(nb.Self) && LeftOf(nb.Succ) < LeftOf(nb.Self) {
				if p.ID != nb.Succ.ID {
					t.Fatalf("seed %d: %v reports to its partial pred %v past %v", seed, nb.Self, nb.Pred, nb.Succ)
				}
				around++
			}
		}
	}
	if around == 0 || broken == 0 || held == 0 {
		t.Fatalf("%d left nodes of processes that are not whole, %d of them around a partial predecessor, %d whole processes held by one; the test exercises too little",
			broken, around, held)
	}
}

func TestProcessAgreesOnUpEdge(t *testing.T) {
	// Each of a process's three nodes works out the same up edge from what
	// its siblings told it, on whole rings and on rings with partial nodes,
	// and exactly the node holding it reports over it. Both left and middle
	// nodes hold one somewhere.
	holders := map[Kind]int{}
	for seed := int64(0); seed < 20; seed++ {
		net := buildNet(t, 64, 900+seed)
		rng := xrand.New(seed)
		partial := map[sim.NodeID]bool{}
		for _, sibs := range net.sibs {
			if seed%2 == 1 && rng.Intn(4) == 0 {
				partial[sibs[2].ID] = true
			}
		}
		for pid, sibs := range net.sibs {
			var got [3]Ref
			var kinds [3]Kind
			for k, ref := range sibs {
				nb := net.partialNeighborhood(net.index[ref.ID], partial)
				up := nb.UpEdge(nb.Self)
				got[k], kinds[k] = up.To, up.Holder
				p, _ := nb.Parent(nb.Self)
				if reports := p.ID == up.To.ID; up.To.Valid() && Kind(k) != Right && reports != (Kind(k) == up.Holder) {
					t.Fatalf("seed %d process %d: %v reports to %v, up edge %v at %v", seed, pid, nb.Self, p, up.To, up.Holder)
				}
			}
			if got[0] != got[1] || got[1] != got[2] || kinds[0] != kinds[1] || kinds[1] != kinds[2] {
				t.Fatalf("seed %d process %d: its nodes see up edges %v at %v", seed, pid, got, kinds)
			}
			if got[0].Valid() {
				holders[kinds[0]]++
			}
		}
	}
	if holders[Left] == 0 || holders[Middle] == 0 {
		t.Fatalf("up edges held by %v; the test exercises too little", holders)
	}
}

func TestJoiningTriadReportsNowhere(t *testing.T) {
	// A joiner's nodes before they are spliced into the ring: the left node
	// knows no predecessor, so the process reports nowhere, even past a
	// successor whose process sits further left. Its middle and right nodes
	// still report within the triad.
	at := func(id sim.NodeID, x float64, kind Kind) Ref {
		return Ref{ID: id, Point: Point{Label: fixpoint.FromFloat(x)}, Kind: kind}
	}
	none := Ref{ID: sim.None}
	l, m, r := at(1, 0.3, Left), at(2, 0.6, Middle), at(3, 0.8, Right)
	succ := at(7, 0.35, Middle) // its process's left label is 0.175
	for _, whole := range []bool{false, true} {
		sibViews := [2]View{{Edges: Edges{Pred: none, Succ: succ}}, {Edges: Edges{Pred: none, Succ: none}}}
		for _, self := range []Ref{l, m, r} {
			nb := Neighborhood{Pred: none, Succ: none, PredView: Unknown, SuccView: Unknown,
				SibIn: [3]bool{true, whole, whole}, SibViews: sibViews, SibL: l, SibM: m, SibR: r}
			if self.Kind == Left {
				nb.Succ = succ
			}
			up := nb.UpEdge(self)
			if up.Holder != Left || up.To.Valid() {
				t.Fatalf("whole=%v: %v works out the up edge %v at %v, want none", whole, self, up.To, up.Holder)
			}
			want := [...]Ref{Left: none, Middle: l, Right: m}[self.Kind]
			p, ok := nb.Parent(self)
			if p.ID != want.ID || ok != want.Valid() {
				t.Fatalf("whole=%v: %v reports to %v (%v), want %v", whole, self, p, ok, want)
			}
		}
	}
}

// interProcessDepth returns the mean, over the ring's nodes, of the tree
// edges between processes on the way to the root: what a wave pays, since
// an edge between siblings costs no round.
func (net *testNet) interProcessDepth(parent func(node) (Ref, bool)) float64 {
	depth := make(map[sim.NodeID]int)
	var walk func(i int) int
	walk = func(i int) int {
		nb := net.bare(i, nil)
		if d, ok := depth[nb.Self.ID]; ok {
			return d
		}
		d := 0
		if p, ok := parent(nb); ok {
			d = walk(net.index[p.ID])
			if net.proc[p.ID] != net.proc[nb.Self.ID] {
				d++
			}
		}
		depth[nb.Self.ID] = d
		return d
	}
	total := 0
	for i := 0; i < net.ring.Len(); i++ {
		total += walk(i)
	}
	return float64(total) / float64(net.ring.Len())
}

// processDistances returns the mean over the ring's nodes of two lower
// bounds on the depth between processes that any tree over ring edges can
// reach: the shortest path to the anchor's process over ring edges that do
// not wrap and along which the left label falls, and the same without the
// fall (a breadth-first search from the anchor's process). A step is an edge
// between two processes; the nodes of one process share their distance.
func (net *testNet) processDistances() (monotone, bfs float64) {
	adj := map[uint64][]uint64{}
	for i := 0; i < net.ring.Len(); i++ {
		a, b := net.ring.At(i), net.ring.Succ(i)
		if pa, pb := net.proc[a.ID], net.proc[b.ID]; pa != pb && a.Point.Less(b.Point) {
			adj[pa], adj[pb] = append(adj[pa], pb), append(adj[pb], pa)
		}
	}
	anchor := net.proc[net.ring.Min().ID]
	label := func(p uint64) fixpoint.Frac { return net.sibs[p][0].Point.Label }
	// Falling labels: settle the processes from the anchor's upward.
	procs := make([]uint64, 0, len(net.sibs))
	for p := range net.sibs {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return label(procs[i]) < label(procs[j]) })
	down := map[uint64]int{anchor: 0}
	for _, p := range procs[1:] {
		best := -1
		for _, q := range adj[p] {
			if d, ok := down[q]; ok && label(q) < label(p) && (best < 0 || d+1 < best) {
				best = d + 1
			}
		}
		down[p] = best
	}
	dist, queue := map[uint64]int{anchor: 0}, []uint64{anchor}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, q := range adj[p] {
			if _, ok := dist[q]; !ok {
				dist[q] = dist[p] + 1
				queue = append(queue, q)
			}
		}
	}
	for _, p := range procs {
		monotone += float64(down[p]) / float64(len(procs))
		bfs += float64(dist[p]) / float64(len(procs))
	}
	return monotone, bfs
}

// treeParent is the tree the protocol runs (Neighborhood.Parent).
func treeParent(nb node) (Ref, bool) { return nb.Parent(nb.Self) }

// paperParent is the paper's tree (§III-B): a left node reports to its ring
// predecessor, a middle node to its left sibling, a right node to its middle.
func paperParent(nb node) (Ref, bool) {
	switch {
	case nb.Self.Kind == Middle:
		return nb.SibL, true
	case nb.Self.Kind == Right:
		return nb.SibM, true
	case nb.IsAnchor(nb.Self):
		return Ref{ID: sim.None}, false
	}
	return nb.Pred, true
}

// leftOnlyParent is the tree with every process treated as not whole: its
// left node reports over one of its own ring edges.
func leftOnlyParent(nb node) (Ref, bool) {
	nb.SibIn[Right] = false   // not whole
	if nb.Self.Kind != Left { // the left node's word, worked out the same way
		l, e := nb, nb.SibViews[Left].Edges
		l.Self, l.Pred, l.Succ, l.PredView.Partial, l.SuccView.Partial = nb.SibL, e.Pred, e.Succ, e.PredPartial, e.SuccPartial
		nb.SibViews[Left].Word = l.UpEdge(l.Self)
	}
	return nb.Parent(nb.Self)
}

// twoHopParent models the next step of the tree (ROADMAP item 3): a process
// picks its up edge among eight candidates, the ring edges of its left and
// middle nodes and the nodes two hops away from those, each reached without
// wrapping, by the same rule as UpEdge — the far end's process with the
// smallest left label, if that is below its own, else the left node's
// predecessor. Not a rule the protocol runs: the far node does not learn its
// children from its own hellos.
func (net *testNet) twoHopParent(nb node) (Ref, bool) {
	l := net.bare(net.index[nb.SibL.ID], nil)
	m := net.bare(net.index[nb.SibM.ID], nil)
	if l.IsAnchor(l.Self) {
		return Up{Holder: Left, To: Ref{ID: sim.None}}.Parent(nb.Self.Kind, nb.SibL, nb.SibM)
	}
	up, best := Up{Holder: Left, To: l.Pred}, LeftOf(nb.SibL)
	for _, v := range []node{l, m} {
		// Each candidate with the way to it, in ring order: it does not wrap
		// when the points rise along it.
		for _, c := range [][]Ref{
			{v.Pred, v.Self}, {v.Self, v.Succ},
			{v.PredView.Edges.Pred, v.Pred, v.Self}, {v.Self, v.Succ, v.SuccView.Edges.Succ},
		} {
			to := c[0]
			if to.ID == v.Self.ID {
				to = c[len(c)-1]
			}
			rises := true
			for i := 1; i < len(c); i++ {
				rises = rises && c[i-1].Point.Less(c[i].Point)
			}
			if rises && LeftOf(to) < best {
				up, best = Up{Holder: v.Self.Kind, To: to}, LeftOf(to)
			}
		}
	}
	return up.Parent(nb.Self.Kind, nb.SibL, nb.SibM)
}

func TestInterProcessDepth(t *testing.T) {
	// The tree's depth between processes at n = 256, averaged over twenty
	// rings: ≈ 15.5 under the paper's predecessor rule, ≈ 11.2 when a left
	// node reports to whichever of its ring neighbours' processes sits
	// further left, ≈ 10.2 when a process takes the best of its left and
	// middle nodes' four ring edges (Neighborhood.UpEdge). Two figures no
	// rule over ring edges can beat are logged, not gated: the shortest path
	// along which the left label falls, and the plain distance from the
	// anchor's process.
	var ours, left, paper, monotone, bfs float64
	const rings = 20
	for seed := int64(1); seed <= rings; seed++ {
		net := buildNet(t, 256, seed)
		ours += net.interProcessDepth(treeParent) / rings
		left += net.interProcessDepth(leftOnlyParent) / rings
		paper += net.interProcessDepth(paperParent) / rings
		m, b := net.processDistances()
		monotone, bfs = monotone+m/rings, bfs+b/rings
	}
	t.Logf("mean inter-process depth at n = 256: %.2f (left node alone %.2f, paper rule %.2f; falling-label shortest path %.2f, distance from the anchor %.2f)",
		ours, left, paper, monotone, bfs)
	if ours > 10.5 {
		t.Errorf("mean inter-process depth %.2f at n = 256, want at most 10.5 (paper rule %.2f)", ours, paper)
	}
	// The model of a rule over eight candidates, the nodes two hops away
	// included (twoHopParent), logged beside the rule the protocol runs.
	for _, n := range []int{7, 64, 256, 1024} {
		var four, eight float64
		for seed := int64(1); seed <= rings; seed++ {
			net := buildNet(t, n, seed)
			four += net.interProcessDepth(treeParent) / rings
			eight += net.interProcessDepth(net.twoHopParent) / rings
		}
		t.Logf("n = %d: mean inter-process depth %.2f over four ring edges, %.2f over eight candidates with the two-hop view", n, four, eight)
	}
}

// route walks a message through the network hop by hop.
func (net *testNet) route(from int, target fixpoint.Frac) (Ref, int) {
	owner, hops, _ := net.walk(from, target)
	return owner, hops
}

// walk routes a message hop by hop and returns where it was delivered, its
// hops as RouteState.Hops counts them, and its ring hops: the hops to a node
// of another process, the ones that cost a round.
func (net *testNet) walk(from int, target fixpoint.Frac) (owner Ref, hops, ringHops int) {
	nb := net.neighborhood(from)
	rs := nb.NewRoute(nb.Self, target)
	for {
		next, out, deliver := nb.NextHop(nb.Self, rs)
		if deliver {
			return nb.Self, out.Hops, ringHops
		}
		if out.Hops > 40*64 {
			return Ref{ID: sim.None}, out.Hops, ringHops
		}
		if net.proc[next.ID] != net.proc[nb.Self.ID] {
			ringHops++
		}
		nb = net.neighborhoodOf(next.ID)
		rs = out
	}
}

func TestRoutingDeliversAtResponsibleNode(t *testing.T) {
	for _, n := range []int{1, 2, 4, 32, 200} {
		net := buildNet(t, n, int64(n)*3+1)
		rng := xrand.New(int64(n))
		for trial := 0; trial < 200; trial++ {
			start := rng.Intn(net.ring.Len())
			key := rng.Frac()
			got, hops := net.route(start, key)
			if !got.Valid() {
				t.Fatalf("n=%d: routing to %v from %d did not terminate", n, key, start)
			}
			want := net.ring.ResponsibleFor(key)
			if got.ID != want.ID {
				t.Fatalf("n=%d: key %v delivered at %v, responsible is %v (hops %d)", n, key, got, want, hops)
			}
		}
	}
}

// routeStats routes trials random keys from random nodes and returns the
// mean, 99th percentile and maximum of RouteState.Hops.
func (net *testNet) routeStats(t testing.TB, rng *xrand.RNG, trials int) (mean float64, p99, max int) {
	t.Helper()
	hops, _ := net.routeHops(t, rng, trials)
	return hopStats(hops)
}

// routeHops routes trials random keys from random nodes, checks each lands
// at the owner, and returns the hop counts and the ring-hop counts.
func (net *testNet) routeHops(t testing.TB, rng *xrand.RNG, trials int) (hops, ringHops []int) {
	t.Helper()
	hops, ringHops = make([]int, trials), make([]int, trials)
	for i := range hops {
		start := rng.Intn(net.ring.Len())
		key := rng.Frac()
		got, h, r := net.walk(start, key)
		if want := net.ring.ResponsibleFor(key); got.ID != want.ID {
			t.Fatalf("key %v from %d delivered at %v after %d hops, responsible is %v", key, start, got, h, want)
		}
		hops[i], ringHops[i] = h, r
	}
	return hops, ringHops
}

func hopStats(hops []int) (mean float64, p99, max int) {
	sort.Ints(hops)
	sum := 0
	for _, h := range hops {
		sum += h
	}
	return float64(sum) / float64(len(hops)), hops[len(hops)*99/100], hops[len(hops)-1]
}

// BenchmarkRouteHops is the hop sweep of EXPERIMENTS.md ("The route at what
// a round costs"): hops as RouteState.Hops counts them (mean / p99 / max),
// and the mean ring hops, the hops to a node of another process, which are
// the ones that cost a round. 20 rings × 2 000 random routes per size
// (3 × 400 from n = 1 024), each checked to land at its owner. It measures
// counts, not a time, so one iteration says everything:
//
//	go test ./internal/ldb -run '^$' -bench RouteHops -benchtime 1x
func BenchmarkRouteHops(b *testing.B) {
	for _, n := range []int{1, 3, 7, 31, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rings, routes := 20, 2000
			if n >= 1024 {
				rings, routes = 3, 400
			}
			var hops, ringHops []int
			for i := 0; i < b.N; i++ {
				hops, ringHops = hops[:0], ringHops[:0]
				for r := 0; r < rings; r++ {
					net := buildNet(b, n, int64(1000*n+r))
					h, rh := net.routeHops(b, xrand.New(int64(r*7919+n)), routes)
					hops, ringHops = append(hops, h...), append(ringHops, rh...)
				}
			}
			mean, p99, max := hopStats(hops)
			ringMean, _, _ := hopStats(ringHops)
			b.ReportMetric(mean, "mean-hops")
			b.ReportMetric(float64(p99), "p99-hops")
			b.ReportMetric(float64(max), "max-hops")
			b.ReportMetric(ringMean, "ring-hops")
			b.ReportMetric(0, "ns/op")
		})
	}
}

func TestRouteAllocatesNothing(t *testing.T) {
	// A route reads the stored neighbourhood in place: neither NewRoute nor
	// NextHop may move it to the heap or allocate anything else, at any hop.
	// Every hop works on a local copy of the node's neighbourhood, as core's
	// routeStep does when it hides a middle sibling still joining, so a
	// receiver that escaped would cost an allocation a hop.
	net := buildNet(t, 256, 1)
	nbs := make([]node, net.ring.Len())
	for i := range nbs {
		nbs[i] = net.neighborhood(i)
	}
	rng := xrand.New(1)
	starts, keys := make([]int, 64), make([]fixpoint.Frac, 64)
	for i := range keys {
		starts[i], keys[i] = rng.Intn(len(nbs)), rng.Frac()
	}
	hops := 0
	allocs := testing.AllocsPerRun(10, func() {
		for i, key := range keys {
			at := starts[i]
			nb := nbs[at]
			rs := nb.NewRoute(nb.Self, key)
			for {
				nb := nbs[at]
				next, out, deliver := nb.NextHop(nb.Self, rs)
				hops++
				if deliver {
					break
				}
				at, rs = net.index[next.ID], out
			}
		}
	})
	if allocs != 0 || hops == 0 {
		t.Errorf("%v allocations a run of %d routes (%d hops in all), want 0", allocs, len(keys), hops)
	}
}

func TestRoutingHopBound(t *testing.T) {
	// Lemma 3 with the constant the route is tuned to: ≈ 2.7 hops per bit of
	// log2(3n) in the mean (EXPERIMENTS.md, "The route at what a hop costs").
	// The route this one replaced (four bits past one gap, one-sided middle
	// search, delivery only after the last bit) took ≈ 5.7 and fails both.
	for _, n := range []int{64, 512, 2048} {
		net := buildNet(t, n, int64(n)+17)
		mean, p99, _ := net.routeStats(t, xrand.New(7), 1000)
		bits := math.Log2(float64(3 * n))
		if mean > 3.5*bits {
			t.Errorf("n=%d: mean hops %.1f > 3.5·log2(3n) = %.1f", n, mean, 3.5*bits)
		}
		if float64(p99) > 6*bits {
			t.Errorf("n=%d: p99 hops %d > 6·log2(3n) = %.1f", n, p99, 6*bits)
		}
	}
}

func TestRingHopsBound(t *testing.T) {
	// The hops between processes are the ones that cost a round. At n = 256
	// they read 9.65 in the mean when a hop went one node on, and ≈ 6.5 since
	// a route reads the view two hops away (EXPERIMENTS.md, "Route over the
	// two-hop view"). 10 rings × 1 000 routes.
	var ringHops []int
	for r := 0; r < 10; r++ {
		net := buildNet(t, 256, int64(256000+r))
		_, rh := net.routeHops(t, xrand.New(int64(r*7919+256)), 1000)
		ringHops = append(ringHops, rh...)
	}
	if mean, _, _ := hopStats(ringHops); mean > 7.0 {
		t.Errorf("mean ring hops %.2f at n = 256, want at most 7.0", mean)
	}
}

func TestRoutingSmallRingNoWorseThanWalking(t *testing.T) {
	// On a ring of a few nodes the bit count must come out so small that the
	// route is never worse than the plain linear walk, whose mean over
	// uniform start and target is a quarter of the 3n nodes (taken the
	// shorter way round) plus the delivering step.
	for _, n := range []int{1, 2, 3, 7} {
		for seed := int64(0); seed < 10; seed++ {
			net := buildNet(t, n, 100*int64(n)+seed)
			mean, _, _ := net.routeStats(t, xrand.New(seed), 1000)
			if limit := float64(3*n)/2 + 2; mean > limit {
				t.Errorf("n=%d seed %d: mean hops %.1f > 3n/2+2 = %.1f", n, seed, mean, limit)
			}
		}
	}
}

func TestMiddleWalkNeverCrossesSeam(t *testing.T) {
	// The halving map is not continuous across the 0/1 seam: while bits are
	// left, a walk to a middle node that starts at or next to the ring's
	// minimum or maximum must not take the wrapping edge, whichever way it
	// was heading, nor jump across the seam to a node two hops away. (The
	// closing linear walk may, and so may a hop to an owner the node can
	// see.)
	for _, n := range []int{1, 2, 3, 7, 31, 200} {
		for seed := int64(0); seed < 20; seed++ {
			net := buildNet(t, n, 1000*int64(n)+seed)
			last := net.ring.Len() - 1
			for _, start := range []int{0, 1, last - 1, last} {
				for _, dir := range []int8{0, 1, -1} {
					// A target far from the seam, so that no node of the walk
					// owns it and the walk ends at a middle node or not at all.
					rs := RouteState{Target: fixpoint.Half, BitsLeft: 3, WalkDir: dir}
					i := start
					for step := 0; ; step++ {
						nb := net.neighborhood(i)
						if nb.Self.Kind == Middle || nb.Responsible(nb.Self, rs.Target) {
							break
						}
						if step > net.ring.Len() {
							t.Fatalf("n=%d seed %d: walk from %d (dir %d) finds no middle node", n, seed, start, dir)
						}
						next, out, _ := nb.NextHop(nb.Self, rs)
						if to := net.neighborhoodOf(next.ID); to.Responsible(to.Self, rs.Target) {
							break // a hop to an owner this node can see, not a walk
						}
						j := net.ring.IndexOf(next.Point)
						if (i == last && j == 0) || (i == 0 && j == last) {
							t.Fatalf("n=%d seed %d: walk from %d (dir %d) crossed the seam %d→%d", n, seed, start, dir, i, j)
						}
						if out.BitsLeft != rs.BitsLeft {
							t.Fatalf("n=%d: a walking step consumed a bit", n)
						}
						i, rs = j, out
					}
				}
			}
		}
	}
}

func TestMiddleWalkLooksBothWays(t *testing.T) {
	// A walk to a middle node under way after a bit (Hops > 0), from a left
	// node at 0.3 between neighbours at 0.29 and 0.31, and nodes two hops away
	// at 0.28 and 0.32. With two bits left the next bit is best prepended from
	// q = frac(4t): 0.9 for t = 0.225, above the node, and 0.1 for t = 0.025,
	// below it. No node it can see owns either. The walk picks a direction,
	// then goes to the neighbour that way if that is a middle node, else on
	// to the node two hops that way if it knows it: a middle node, or one
	// more it knows is not.
	above, below := fixpoint.FromFloat(0.9/4), fixpoint.FromFloat(0.1/4)
	at := func(id sim.NodeID, x float64, kind Kind) Ref {
		return Ref{ID: id, Point: Point{Label: fixpoint.FromFloat(x)}, Kind: kind}
	}
	const none = Kind(9) // a node two hops away that is not known
	const near, far = false, true
	for _, tc := range []struct {
		name       string
		pred, succ Kind
		pp, ss     Kind
		target     fixpoint.Frac
		carried    int8
		want       int8
		far        bool
	}{
		{"successor middle", Right, Middle, Right, Right, below, 0, 1, near},
		{"predecessor middle", Middle, Right, Right, Right, above, 0, -1, near},
		{"both middle, q above", Middle, Middle, Right, Right, above, 0, 1, near},
		{"both middle, q below", Middle, Middle, Right, Right, below, 0, -1, near},
		// Neither neighbour is a middle node and none two hops away is: the
		// walk steers for q and skips a node it knows is not one.
		{"neither middle, q above", Right, Left, Right, Left, above, 0, 1, far},
		{"neither middle, q below", Right, Left, Right, Left, below, 0, -1, far},
		// Neither neighbour is a middle node: the walk looks two hops ahead,
		// steers for q only if that does not decide, and jumps to the middle
		// node two hops away.
		{"successor's successor middle", Right, Left, Right, Middle, below, 0, 1, far},
		{"predecessor's predecessor middle", Right, Left, Middle, Left, above, 0, -1, far},
		{"both two hops away middle, q above", Right, Left, Middle, Middle, above, 0, 1, far},
		{"both two hops away middle, q below", Right, Left, Middle, Middle, below, 0, -1, far},
		{"successor's successor unknown", Right, Left, Middle, none, above, 0, -1, far},
		// A node two hops away that is not known (an invalid view) is not
		// jumped to: the walk takes the neighbour.
		{"neither two hops away known", Right, Left, none, none, below, 0, -1, near},
		{"the far view that way unknown", Right, Left, Left, none, above, 0, 1, near},
		{"a middle neighbour beats two hops away", Middle, Right, Right, Middle, above, 0, -1, near},
		// The direction travels: a walk already under way keeps it, past a
		// middle node on the other side and away from q.
		{"carried past a successor middle", Right, Middle, Right, Right, below, -1, -1, far},
		{"carried past a predecessor middle", Middle, Right, Right, Right, above, 1, 1, far},
		{"carried away from q", Right, Left, Right, Left, below, 1, 1, far},
		{"carried past a successor's successor middle", Right, Left, Right, Middle, below, -1, -1, far},
	} {
		view := func(id sim.NodeID, x float64, kind Kind) Ref {
			if kind == none {
				return Ref{ID: sim.None}
			}
			return at(id, x, kind)
		}
		nb := ringAround(view(5, 0.28, tc.pp), at(2, 0.29, tc.pred), at(3, 0.31, tc.succ), view(6, 0.32, tc.ss))
		nb.SibM = at(4, 0.6, Middle)
		next, out, deliver := nb.NextHop(at(1, 0.3, Left), RouteState{Target: tc.target, BitsLeft: 2, Hops: 1, WalkDir: tc.carried})
		want := map[[2]bool]Ref{{false, near}: nb.Succ, {false, far}: nb.SuccView.Edges.Succ, {true, near}: nb.Pred, {true, far}: nb.PredView.Edges.Pred}[[2]bool{tc.want < 0, tc.far}]
		if deliver || next.ID != want.ID || out.WalkDir != tc.want || out.BitsLeft != 2 {
			t.Errorf("%s: went to %v (dir %d, %d bits, deliver %v), want %v (dir %d)",
				tc.name, next, out.WalkDir, out.BitsLeft, deliver, want, tc.want)
		}
	}
	// The seam flip beats the two-hop view: the ring's maximum, a right node,
	// sees a middle node two hops away across the seam and walks the other
	// way, since the halving map does not cross it, two nodes at a time.
	top := ringAround(at(5, 0.85, Right), at(2, 0.9, Right), at(3, 0.01, Left), at(6, 0.02, Middle))
	top.SibM = at(4, 0.9, Middle)
	next, out, _ := top.NextHop(at(1, 0.95, Right), RouteState{Target: fixpoint.Half, BitsLeft: 2, Hops: 1})
	if next.ID != top.PredView.Edges.Pred.ID || out.WalkDir != -1 {
		t.Errorf("the ring's maximum went to %v (dir %d), want its predecessor's predecessor %v", next, out.WalkDir, top.PredView.Edges.Pred)
	}
	// A far edge that would cross the seam is not taken: the node below the
	// ring's maximum, walking up, stops at the maximum, whose successor lies
	// across the seam.
	edge := ringAround(at(5, 0.95, Right), at(2, 0.96, Right), at(3, 0.99, Right), at(6, 0.01, Left))
	edge.SibM = at(4, 0.94, Middle)
	next, out, _ = edge.NextHop(at(1, 0.97, Right), RouteState{Target: fixpoint.Half, BitsLeft: 2, Hops: 1, WalkDir: 1})
	if next.ID != edge.Succ.ID || out.WalkDir != 1 {
		t.Errorf("a walk below the seam went to %v (dir %d), want its successor %v", next, out.WalkDir, edge.Succ)
	}
}

func TestRouteDeliversAhead(t *testing.T) {
	// A node that can see the owner of the target sends the message straight
	// there, in any phase: its predecessor for [Pred, Self), its successor
	// for [Succ, SuccSucc), its predecessor's predecessor for [PredPred,
	// Pred). The interval of the successor's successor ends at a node it does
	// not know, so that one is not an owner it can see.
	at := func(id sim.NodeID, x float64, kind Kind) Ref {
		return Ref{ID: id, Point: Point{Label: fixpoint.FromFloat(x)}, Kind: kind}
	}
	self, pp, ss := at(1, 0.3, Left), at(5, 0.28, Right), at(6, 0.32, Right)
	nb := ringAround(pp, at(2, 0.29, Right), at(3, 0.31, Right), ss)
	nb.SibL, nb.SibM, nb.SibR = self, at(4, 0.6, Middle), at(7, 0.8, Right)
	for _, tc := range []struct {
		key  float64
		want Ref
	}{
		{0.295, nb.Pred}, {0.29, nb.Pred}, {0.315, nb.Succ}, {0.31, nb.Succ},
		{0.285, pp}, {0.28, pp},
	} {
		for _, rs := range []RouteState{
			{BitsLeft: 3},                       // a route that starts here
			{BitsLeft: 3, Hops: 2, WalkDir: -1}, // a walk under way
			{Hops: 4},                           // a closing walk
		} {
			rs.Target = fixpoint.FromFloat(tc.key)
			next, out, deliver := nb.NextHop(self, rs)
			if deliver || next.ID != tc.want.ID || out.BitsLeft != rs.BitsLeft || out.Hops != rs.Hops+1 {
				t.Errorf("key %v with %+v: went to %v (%+v, deliver %v), want its owner %v", tc.key, rs, next, out, deliver, tc.want)
			}
		}
	}
	// Past the nodes it can see, a closing walk goes two nodes at a time.
	for _, tc := range []struct {
		key  float64
		want Ref
	}{{0.325, ss}, {0.5, ss}, {0.275, pp}, {0.1, pp}} {
		next, _, _ := nb.NextHop(self, RouteState{Target: fixpoint.FromFloat(tc.key), Hops: 4})
		if next.ID != tc.want.ID {
			t.Errorf("closing walk to %v went to %v, want %v", tc.key, next, tc.want)
		}
	}
	// Without the view two hops away, it goes one.
	nb.PredView.Edges.Pred, nb.SuccView.Edges.Succ = Ref{ID: sim.None}, Ref{ID: sim.None}
	for _, tc := range []struct {
		key  float64
		want Ref
	}{{0.5, nb.Succ}, {0.285, nb.Pred}, {0.1, nb.Pred}} {
		next, _, _ := nb.NextHop(self, RouteState{Target: fixpoint.FromFloat(tc.key), Hops: 4})
		if next.ID != tc.want.ID {
			t.Errorf("closing walk without a two-hop view to %v went to %v, want %v", tc.key, next, tc.want)
		}
	}
}

func TestRouteNeverJumpsPastOwner(t *testing.T) {
	// On static rings no hop passes the target's owner: every hop between
	// processes lands on the owner or on a node the route must still cross,
	// measured along the way the hop went (a De Bruijn hop to a sibling and
	// a hop within a process are not walks and are not checked).
	for _, n := range []int{1, 2, 3, 7, 64, 256} {
		net := buildNet(t, n, int64(n)+5)
		rng := xrand.New(int64(n))
		for trial := 0; trial < 400; trial++ {
			i := rng.Intn(net.ring.Len())
			key := rng.Frac()
			owner := net.ring.ResponsibleFor(key)
			nb := net.neighborhood(i)
			rs := nb.NewRoute(nb.Self, key)
			for step := 0; ; step++ {
				next, out, deliver := nb.NextHop(nb.Self, rs)
				if deliver {
					if nb.Self.ID != owner.ID {
						t.Fatalf("n=%d: %v delivered at %v, owner %v", n, key, nb.Self, owner)
					}
					break
				}
				if step > 40*64 {
					t.Fatalf("n=%d: route to %v does not end", n, key)
				}
				if net.proc[next.ID] != net.proc[nb.Self.ID] {
					// The hop skips nodes only if it is not to a neighbour;
					// then the owner must not be among those it skips.
					a, b := net.index[nb.Self.ID], net.index[next.ID]
					forward := next.ID == nb.Succ.ID || next.ID == nb.SuccView.Edges.Succ.ID
					if !forward && next.ID != nb.Pred.ID && next.ID != nb.PredView.Edges.Pred.ID {
						t.Fatalf("n=%d: hop %v → %v is to no ring node it can see", n, nb.Self, next)
					}
					for j := a; j != b; {
						if forward {
							j = (j + 1) % net.ring.Len()
						} else {
							j = (j - 1 + net.ring.Len()) % net.ring.Len()
						}
						if j != b && net.ring.At(j).ID == owner.ID {
							t.Fatalf("n=%d: hop %v → %v jumps past the owner %v of %v", n, nb.Self, next, owner, key)
						}
					}
				}
				nb, rs = net.neighborhoodOf(next.ID), out
			}
		}
	}
}

func TestStaleTwoHopViewStillDelivers(t *testing.T) {
	// A node is spliced in between a node's successor and its successor's
	// successor, and the node has not heard: its two-hop view is out of
	// date. A key the new node owns lies in what the old view gives the
	// successor, so the message goes there, and the successor, which knows
	// its new neighbour, passes it on to the owner. The same on the
	// predecessor's side.
	net := buildNet(t, 64, 41)
	rng := xrand.New(17)
	routes := 0
	for trial := 0; trial < 500; trial++ {
		i := rng.Intn(net.ring.Len())
		stale := net.neighborhood(i)
		// A new node between the successor and its successor, or between
		// the predecessor's predecessor and the predecessor.
		left, right := stale.Succ, stale.SuccView.Edges.Succ
		if trial%2 == 1 {
			left, right = stale.PredView.Edges.Pred, stale.Pred
		}
		if !left.Point.Less(right.Point) {
			continue // across the seam
		}
		mid := left.Point.Label + (right.Point.Label-left.Point.Label)/2
		if mid == left.Point.Label {
			continue
		}
		x := Ref{ID: 9999, Point: Point{Label: mid}, Kind: Right}
		// The fresh ring: the others' neighbourhoods as the ring with x in it.
		fresh := NewRing(append(refsOf(net.ring), x))
		view := func(r Ref) node {
			j := fresh.IndexOf(r.Point)
			nb := node{Self: r, Neighborhood: ringAround(fresh.Pred((j-1+fresh.Len())%fresh.Len()), fresh.Pred(j), fresh.Succ(j), fresh.Succ((j+1)%fresh.Len()))}
			if r.ID != x.ID {
				s := net.sibs[net.proc[r.ID]]
				nb.SibL, nb.SibM, nb.SibR = s[0], s[1], s[2]
			}
			return nb
		}
		for _, key := range []fixpoint.Frac{mid, mid + (right.Point.Label-mid)/2, right.Point.Label - 1} {
			if !fixpoint.InCWRange(key, mid, right.Point.Label) {
				continue
			}
			nb, rs := stale, RouteState{Target: key, Hops: 3}
			routes++
			for step := 0; ; step++ {
				next, out, deliver := nb.NextHop(nb.Self, rs)
				if deliver {
					if nb.Self.ID != x.ID {
						t.Fatalf("key %v owned by the new node %v was delivered at %v", key, x, nb.Self)
					}
					break
				}
				if step > 3*fresh.Len() {
					t.Fatalf("key %v owned by the new node %v: the route does not end", key, x)
				}
				nb, rs = view(next), out
			}
		}
	}
	if routes < 500 {
		t.Fatalf("only %d routes to a node behind a stale view; the test exercises too little", routes)
	}
}

func refsOf(r *Ring) []Ref {
	refs := make([]Ref, r.Len())
	for i := range refs {
		refs[i] = r.At(i)
	}
	return refs
}

func TestRouteStartsAtOwnMiddle(t *testing.T) {
	// A route that starts at a left or right node with bits to prepend first
	// takes the virtual edge to its own middle node, whatever its ring
	// neighbours are, unless it can see the target's owner, to which it then
	// goes straight. That hop consumes no bit and sets no walk direction.
	// Without a middle sibling in its neighbourhood (a host whose middle node
	// still joins) the route walks the ring instead, to a neighbour or a node
	// two hops away, its bits kept.
	net := buildNet(t, 64, 37)
	rng := xrand.New(11)
	jumps := map[Kind]int{}
	for trial := 0; trial < 2000; trial++ {
		nb := net.neighborhood(rng.Intn(net.ring.Len()))
		key := rng.Frac()
		rs := nb.NewRoute(nb.Self, key)
		if nb.Self.Kind == Middle || rs.BitsLeft == 0 || nb.Responsible(nb.Self, key) {
			continue
		}
		want := nb.SibM
		if owner := net.ring.ResponsibleFor(key); owner.ID == nb.Pred.ID || owner.ID == nb.Succ.ID || owner.ID == nb.PredView.Edges.Pred.ID {
			want = owner
		}
		next, out, deliver := nb.NextHop(nb.Self, rs)
		if deliver || next.ID != want.ID || out.BitsLeft != rs.BitsLeft || out.WalkDir != 0 || out.Hops != 1 {
			t.Fatalf("route from %v to %v with %d bits: first hop to %v with %+v, want %v",
				nb.Self, key, rs.BitsLeft, next, out, want)
		}
		if want.ID != nb.SibM.ID {
			continue
		}
		jumps[nb.Self.Kind]++
		nb.SibM = Ref{ID: sim.None}
		next, out, _ = nb.NextHop(nb.Self, rs)
		ring := next.ID == nb.Pred.ID || next.ID == nb.Succ.ID || next.ID == nb.PredView.Edges.Pred.ID || next.ID == nb.SuccView.Edges.Succ.ID
		if !ring || out.BitsLeft != rs.BitsLeft || out.WalkDir == 0 {
			t.Fatalf("route from %v without a middle sibling: first hop to %v with %+v, want a ring node it can see and %d bits",
				nb.Self, next, out, rs.BitsLeft)
		}
	}
	if jumps[Left] == 0 || jumps[Right] == 0 {
		t.Fatalf("start jumps from left / right nodes: %d / %d; the test exercises nothing", jumps[Left], jumps[Right])
	}
}

func TestRouteDeliversAtFirstResponsibleNode(t *testing.T) {
	// A route whose path meets the owner of the target before its bits run
	// out delivers there: no node that is responsible ever forwards.
	net := buildNet(t, 64, 29)
	rng := xrand.New(3)
	early := 0
	for trial := 0; trial < 2000; trial++ {
		nb := net.neighborhood(rng.Intn(net.ring.Len()))
		key := rng.Frac()
		rs := nb.NewRoute(nb.Self, key)
		for {
			next, out, deliver := nb.NextHop(nb.Self, rs)
			if nb.Responsible(nb.Self, key) != deliver {
				t.Fatalf("at %v (responsible %v) for %v with %d bits left: deliver=%v",
					nb.Self, nb.Responsible(nb.Self, key), key, rs.BitsLeft, deliver)
			}
			if deliver {
				if rs.BitsLeft > 0 {
					early++
				}
				break
			}
			nb, rs = net.neighborhoodOf(next.ID), out
		}
	}
	if early == 0 {
		t.Fatalf("no route of 2000 met its owner with bits left; the test exercises nothing")
	}
	// And directly: the owner, handed the message in any phase, consumes it.
	owner := net.neighborhoodOf(net.ring.ResponsibleFor(fixpoint.Half).ID)
	for _, rs := range []RouteState{
		{Target: fixpoint.Half, BitsLeft: 5},
		{Target: fixpoint.Half, BitsLeft: 5, WalkDir: -1},
		{Target: fixpoint.Half},
	} {
		if _, _, deliver := owner.NextHop(owner.Self, rs); !deliver {
			t.Fatalf("owner forwards %+v", rs)
		}
	}
}

func TestRoutingToOwnKeyImmediate(t *testing.T) {
	net := buildNet(t, 50, 21)
	for i := 0; i < net.ring.Len(); i++ {
		nb := net.neighborhood(i)
		// A key just inside the own interval must be deliverable.
		key := nb.Self.Point.Label
		got, _ := net.route(i, key)
		if got.ID != nb.Self.ID {
			t.Fatalf("routing to own label landed at %v, not self %v", got, nb.Self)
		}
	}
}

func TestNewRouteBitEstimate(t *testing.T) {
	// The count is the argmin of the cost NewRoute states, recomputed here in
	// floating point: for k ≥ 1, c·(k−1) + |x − frac(2^k·t)|·2^−k / 2ĝ hops,
	// x the label of the node's own middle node; for k = 0 the walk from the
	// node to t the shorter way round, at two gaps a hop; over 0 ≤ k ≤ ⌈log2(1/ĝ)⌉ − 1, ĝ the
	// mean of the two gaps. It is chosen per route: the nodes of one ring
	// choose many different counts.
	const n = 1024
	net := buildNet(t, n, 22)
	rng := xrand.New(9)
	c := float64(middleWalkNum) / middleWalkDen
	gap := func(a, b fixpoint.Frac) float64 { return math.Mod(b.Float()-a.Float()+1, 1) }
	counts := map[int]int{}
	for i := 0; i < net.ring.Len(); i++ {
		nb := net.neighborhood(i)
		self, x := nb.Self.Point.Label.Float(), nb.SibM.Point.Label.Float()
		g := (gap(nb.Pred.Point.Label, nb.Self.Point.Label) + gap(nb.Self.Point.Label, nb.Succ.Point.Label)) / 2
		limit := int(math.Ceil(math.Log2(1/g))) - 1
		for trial := 0; trial < 4; trial++ {
			key := rng.Frac()
			tf := key.Float()
			cost := func(k int) float64 {
				if k == 0 {
					d := math.Abs(tf - self)
					return math.Min(d, 1-d) / g / 2
				}
				scale := math.Ldexp(1, k)
				return c*float64(k-1) + math.Abs(x-math.Mod(tf*scale, 1))/scale/g/2
			}
			k := nb.NewRoute(nb.Self, key).BitsLeft
			if k < 0 || k > limit {
				t.Fatalf("node %d: %d bits, want within [0, %d]", i, k, limit)
			}
			for j := 0; j <= limit; j++ {
				if cost(j) < cost(k)-1e-6 {
					t.Fatalf("node %d, target %v: %d bits cost %.4f gaps, %d bits %.4f", i, key, k, cost(k), j, cost(j))
				}
			}
			counts[k]++
		}
	}
	if len(counts) < 4 {
		t.Errorf("bit counts chosen %v: want many different counts on one ring", counts)
	}
}

func TestNewRouteSmallRings(t *testing.T) {
	// No small-ring special case: the rule itself yields at most 2 and 3 bits
	// at the typical node of the 9- and 21-node rings of the 3- and 7-member
	// clusters (a node squeezed between two close neighbours reads more; the
	// route stays correct, only longer), and is exact on the
	// degenerate rings — a node alone (both gaps the full circle) and two
	// nodes (the gaps sum to the full circle, whatever their split).
	for _, n := range []int{3, 7} {
		for seed := int64(0); seed < 50; seed++ {
			net := buildNet(t, n, seed)
			var ks []int
			for i := 0; i < net.ring.Len(); i++ {
				nb := net.neighborhood(i)
				ks = append(ks, nb.NewRoute(nb.Self, fixpoint.Half).BitsLeft)
			}
			sort.Ints(ks)
			if limit := int(math.Ceil(math.Log2(float64(3*n)))) - 2; ks[len(ks)/2] > limit {
				t.Errorf("n=%d seed %d: median node prepends %d bits on a %d-node ring, want ≤ %d (all: %v)", n, seed, ks[len(ks)/2], 3*n, limit, ks)
			}
		}
	}
	a := Ref{ID: 1, Point: Point{Label: fixpoint.FromFloat(0.9)}, Kind: Left}
	alone := Neighborhood{Pred: a, Succ: a}
	if k := alone.NewRoute(a, fixpoint.Half).BitsLeft; k != 0 {
		t.Errorf("single node: %d bits, want 0", k)
	}
	for _, at := range []float64{0.9001, 0.1, 0.4, 0.8999} {
		b := Ref{ID: 2, Point: Point{Label: fixpoint.FromFloat(at)}, Kind: Right}
		two := Neighborhood{Pred: b, Succ: b}
		if k := two.NewRoute(a, fixpoint.Half).BitsLeft; k != 0 {
			t.Errorf("two nodes (other at %v): %d bits, want 0", at, k)
		}
	}
}

func TestResponsibleMatchesRingOracle(t *testing.T) {
	net := buildNet(t, 64, 23)
	rng := xrand.New(5)
	for trial := 0; trial < 300; trial++ {
		k := rng.Frac()
		count := 0
		for i := 0; i < net.ring.Len(); i++ {
			if nb := net.neighborhood(i); nb.Responsible(nb.Self, k) {
				count++
				if net.ring.ResponsibleFor(k).ID != net.ring.At(i).ID {
					t.Fatalf("local Responsible disagrees with oracle for %v", k)
				}
			}
		}
		if count != 1 {
			t.Fatalf("key %v claimed by %d nodes", k, count)
		}
	}
}

func TestRefValidAndString(t *testing.T) {
	var r Ref
	r.ID = sim.None
	if r.Valid() || r.String() != "<nil>" {
		t.Errorf("zero ref should be invalid")
	}
	r = Ref{ID: 3, Point: Point{Label: fixpoint.Half}, Kind: Middle}
	if !r.Valid() || r.String() == "" {
		t.Errorf("ref should be valid and printable")
	}
}

func TestTriadHasOneDecider(t *testing.T) {
	// The left node works the up edge out and its siblings act on its word.
	// A left node whose up edge moves to its middle node reports to its
	// predecessor until the middle node has confirmed, and a middle node that
	// has not heard yet reports to its left sibling: never to each other.
	net := buildNet(t, 64, 3)
	moved := 0
	for p, s := range net.sibs {
		l := net.neighborhoodOf(s[0].ID)
		up := l.UpEdge(l.Self)
		if up.Holder != Middle {
			continue
		}
		moved++
		l.UpSeq = l.SibViews[Middle].Seen + 1 // not confirmed yet
		if got, ok := l.Parent(l.Self); !ok || got.ID != l.Pred.ID {
			t.Fatalf("process %d: unconfirmed, the left node reports to %v, want its predecessor %v", p, got, l.Pred)
		}
		l.UpSeq = l.SibViews[Middle].Seen
		if got, _ := l.Parent(l.Self); got.ID != s[1].ID {
			t.Fatalf("process %d: confirmed, the left node reports to %v, want its middle node %v", p, got, s[1])
		}
		m := net.neighborhoodOf(s[1].ID)
		if got, _ := m.Parent(m.Self); got.ID != up.To.ID {
			t.Fatalf("process %d: told, the middle node reports to %v, want %v", p, got, up.To)
		}
		m.SibViews[Left].Word = Up{Holder: Left, To: Ref{ID: sim.None}}
		if got, _ := m.Parent(m.Self); got.ID != s[0].ID {
			t.Fatalf("process %d: not told yet, the middle node reports to %v, want its left node %v", p, got, s[0])
		}
	}
	if moved == 0 {
		t.Fatal("no process's up edge is its middle node's; the test exercises nothing")
	}
}

func TestSingleProcessTopology(t *testing.T) {
	// One process: chain l <- m <- r, anchor l.
	net := buildNet(t, 1, 42)
	l, m, r := net.neighborhood(0), net.neighborhood(1), net.neighborhood(2)
	if l.Self.Kind != Left || m.Self.Kind != Middle || r.Self.Kind != Right {
		t.Fatalf("ring order not l,m,r: %v %v %v", l.Self, m.Self, r.Self)
	}
	if !l.IsAnchor(l.Self) {
		t.Fatalf("left node should be anchor")
	}
	if p, ok := m.Parent(m.Self); !ok || p.ID != l.Self.ID {
		t.Errorf("parent of middle should be left")
	}
	if p, ok := r.Parent(r.Self); !ok || p.ID != m.Self.ID {
		t.Errorf("parent of right should be middle")
	}
	lc := l.Children(l.Self)
	if len(lc) != 1 || lc[0].ID != m.Self.ID {
		t.Errorf("children of left should be {middle}, got %v", lc)
	}
	mc := m.Children(m.Self)
	if len(mc) != 1 || mc[0].ID != r.Self.ID {
		t.Errorf("children of middle should be {right}, got %v", mc)
	}
	if len(r.Children(r.Self)) != 0 {
		t.Errorf("right node should be a leaf")
	}
}
