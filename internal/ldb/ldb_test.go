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

func (net *testNet) neighborhood(i int) Neighborhood {
	return net.partialNeighborhood(i, nil)
}

// partialNeighborhood is node i's neighbourhood with the Partial flags read
// from partial, the same for every node that looks at a given one. A process
// with a partial node is not whole.
func (net *testNet) partialNeighborhood(i int, partial map[sim.NodeID]bool) Neighborhood {
	nb := net.bare(i, partial)
	nb.PredUp = net.up(net.index[nb.Pred.ID], partial)
	nb.SuccUp = net.up(net.index[nb.Succ.ID], partial)
	return nb
}

// bare is node i's neighbourhood without what its neighbours say they report
// to, which Parent does not read.
func (net *testNet) bare(i int, partial map[sim.NodeID]bool) Neighborhood {
	self := net.ring.At(i)
	s := net.sibs[net.proc[self.ID]]
	n := net.ring.Len()
	edges := func(id sim.NodeID) Edges {
		j := net.index[id]
		p, q := net.ring.Pred(j), net.ring.Succ(j)
		return Edges{Pred: p, Succ: q, PredPartial: partial[p.ID], SuccPartial: partial[q.ID]}
	}
	return Neighborhood{
		Self:        self,
		Pred:        net.ring.Pred(i),
		Succ:        net.ring.Succ(i),
		PredPred:    net.ring.Pred((i - 1 + n) % n),
		SuccSucc:    net.ring.Succ((i + 1) % n),
		PredPartial: partial[net.ring.Pred(i).ID], SuccPartial: partial[net.ring.Succ(i).ID],
		Whole:    !partial[s[1].ID] && !partial[s[2].ID],
		SibEdges: [2]Edges{edges(s[0].ID), edges(s[1].ID)},
		SibL:     s[0], SibM: s[1], SibR: s[2],
	}
}

// up is what node j tells its ring neighbours it reports to: its parent when
// that is a node of another process.
func (net *testNet) up(j int, partial map[sim.NodeID]bool) Ref {
	nb := net.bare(j, partial)
	if p, ok := nb.Parent(); ok && net.proc[p.ID] != net.proc[nb.Self.ID] {
		return p
	}
	return Ref{ID: sim.None}
}

func (net *testNet) neighborhoodOf(id sim.NodeID) Neighborhood {
	i, ok := net.index[id]
	if !ok {
		panic("node not on ring")
	}
	return net.neighborhood(i)
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
			if nb.IsAnchor() {
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
			if p, ok := nb.Parent(); ok {
				parentOf[nb.Self.ID] = p
			} else {
				roots++
			}
			if len(nb.Children()) == 0 {
				childless++
			}
		}
		if roots != 1 {
			t.Fatalf("n=%d: %d roots", n, roots)
		}
		// Check symmetry.
		for i := 0; i < net.ring.Len(); i++ {
			nb := net.neighborhood(i)
			for _, c := range nb.Children() {
				if got := parentOf[c.ID]; got.ID != nb.Self.ID {
					t.Fatalf("n=%d: child %v of %v has parent %v", n, c, nb.Self, got)
				}
			}
			if p, ok := nb.Parent(); ok {
				pnb := net.neighborhoodOf(p.ID)
				found := false
				for _, c := range pnb.Children() {
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
				p, ok := nb.Parent()
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
			p, ok := nb.Parent()
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
			for _, c := range nb.Children() {
				pred := c.ID == nb.Pred.ID && !nb.isWrapPred() && c.Kind != Right
				succ := c.ID == nb.Succ.ID && !nb.isWrapSucc() && c.Kind == Middle
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
		nbs := make(map[sim.NodeID]Neighborhood)
		for i := 0; i < net.ring.Len(); i++ {
			nb := net.partialNeighborhood(i, partial)
			nbs[nb.Self.ID] = nb
		}
		for id, nb := range nbs {
			for _, c := range nb.Children() {
				if p, _ := nbs[c.ID].Parent(); p.ID != id {
					t.Fatalf("seed %d: %v counts %v as a child, whose parent is %v", seed, nb.Self, c, p)
				}
				if partial[id] && net.proc[c.ID] != net.proc[id] && c.ID != nb.Succ.ID {
					t.Fatalf("seed %d: partial %v has its predecessor %v for a child", seed, nb.Self, c)
				}
			}
			p, ok := nb.Parent()
			if !ok {
				continue
			}
			if !slices.ContainsFunc(nbs[p.ID].Children(), func(c Ref) bool { return c.ID == id }) {
				t.Fatalf("seed %d: %v reports to %v, which does not count it", seed, nb.Self, p)
			}
			foreign := net.proc[p.ID] != net.proc[id]
			if foreign && LeftOf(p) >= LeftOf(nb.Self) {
				t.Fatalf("seed %d: parent %v of %v: left label %v not below %v", seed, p, nb.Self, LeftOf(p), LeftOf(nb.Self))
			}
			if foreign && partial[p.ID] && (nb.Self.Kind != Left || p.ID != nb.Pred.ID) {
				t.Fatalf("seed %d: %v reports to partial %v, which is not its left node's predecessor", seed, nb.Self, p)
			}
			if nb.Whole {
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
			if nb.PredPartial && !nb.SuccPartial && !nb.isWrapSucc() && LeftOf(nb.Succ) < LeftOf(nb.Self) {
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
				up := nb.UpEdge()
				got[k], kinds[k] = up.To, up.Holder
				p, _ := nb.Parent()
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
		sibEdges := [2]Edges{{Pred: none, Succ: succ}, {Pred: none, Succ: none}}
		for _, self := range []Ref{l, m, r} {
			nb := Neighborhood{Self: self, Pred: none, Succ: none, PredPred: none, SuccSucc: none, PredUp: none, SuccUp: none,
				Whole: whole, SibEdges: sibEdges, SibL: l, SibM: m, SibR: r}
			if self.Kind == Left {
				nb.Succ = succ
			}
			up := nb.UpEdge()
			if up.Holder != Left || up.To.Valid() {
				t.Fatalf("whole=%v: %v works out the up edge %v at %v, want none", whole, self, up.To, up.Holder)
			}
			want := [...]Ref{Left: none, Middle: l, Right: m}[self.Kind]
			p, ok := nb.Parent()
			if p.ID != want.ID || ok != want.Valid() {
				t.Fatalf("whole=%v: %v reports to %v (%v), want %v", whole, self, p, ok, want)
			}
		}
	}
}

// interProcessDepth returns the mean, over the ring's nodes, of the tree
// edges between processes on the way to the root: what a wave pays, since
// an edge between siblings costs no round.
func (net *testNet) interProcessDepth(parent func(Neighborhood) (Ref, bool)) float64 {
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

// paperParent is the paper's tree (§III-B): a left node reports to its ring
// predecessor, a middle node to its left sibling, a right node to its middle.
func paperParent(nb Neighborhood) (Ref, bool) {
	switch {
	case nb.Self.Kind == Middle:
		return nb.SibL, true
	case nb.Self.Kind == Right:
		return nb.SibM, true
	case nb.IsAnchor():
		return Ref{ID: sim.None}, false
	}
	return nb.Pred, true
}

// leftOnlyParent is the tree with every process treated as not whole: its
// left node reports over one of its own ring edges.
func leftOnlyParent(nb Neighborhood) (Ref, bool) {
	nb.Whole = false
	return nb.Parent()
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
		ours += net.interProcessDepth(Neighborhood.Parent) / rings
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
	rs := nb.NewRoute(target)
	for {
		next, out, deliver := nb.NextHop(rs)
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
	// was heading. (The closing linear walk may.)
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
						if nb.Self.Kind == Middle || nb.Responsible(rs.Target) {
							break
						}
						if step > net.ring.Len() {
							t.Fatalf("n=%d seed %d: walk from %d (dir %d) finds no middle node", n, seed, start, dir)
						}
						next, out, _ := nb.NextHop(rs)
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
	// below it. The node owns neither.
	above, below := fixpoint.FromFloat(0.9/4), fixpoint.FromFloat(0.1/4)
	at := func(id sim.NodeID, x float64, kind Kind) Ref {
		return Ref{ID: id, Point: Point{Label: fixpoint.FromFloat(x)}, Kind: kind}
	}
	const none = Kind(9) // a node two hops away that is not known
	for _, tc := range []struct {
		name       string
		pred, succ Kind
		pp, ss     Kind
		target     fixpoint.Frac
		carried    int8
		want       int8
	}{
		{"successor middle", Right, Middle, Right, Right, below, 0, 1},
		{"predecessor middle", Middle, Right, Right, Right, above, 0, -1},
		{"both middle, q above", Middle, Middle, Right, Right, above, 0, 1},
		{"both middle, q below", Middle, Middle, Right, Right, below, 0, -1},
		{"neither middle, q above", Right, Left, Right, Left, above, 0, 1},
		{"neither middle, q below", Right, Left, Right, Left, below, 0, -1},
		// Neither neighbour is a middle node: the walk looks two hops ahead,
		// and steers for q only if that does not decide.
		{"successor's successor middle", Right, Left, Right, Middle, below, 0, 1},
		{"predecessor's predecessor middle", Right, Left, Middle, Left, above, 0, -1},
		{"both two hops away middle, q above", Right, Left, Middle, Middle, above, 0, 1},
		{"both two hops away middle, q below", Right, Left, Middle, Middle, below, 0, -1},
		{"successor's successor unknown", Right, Left, Middle, none, above, 0, -1},
		{"neither two hops away known", Right, Left, none, none, below, 0, -1},
		{"a middle neighbour beats two hops away", Middle, Right, Right, Middle, above, 0, -1},
		// The direction travels: a walk already under way keeps it, past a
		// middle node on the other side and away from q.
		{"carried past a successor middle", Right, Middle, Right, Right, below, -1, -1},
		{"carried past a predecessor middle", Middle, Right, Right, Right, above, 1, 1},
		{"carried away from q", Right, Left, Right, Left, below, 1, 1},
		{"carried past a successor's successor middle", Right, Left, Right, Middle, below, -1, -1},
	} {
		far := func(id sim.NodeID, x float64, kind Kind) Ref {
			if kind == none {
				return Ref{ID: sim.None}
			}
			return at(id, x, kind)
		}
		nb := Neighborhood{
			Self: at(1, 0.3, Left), Pred: at(2, 0.29, tc.pred), Succ: at(3, 0.31, tc.succ),
			PredPred: far(5, 0.28, tc.pp), SuccSucc: far(6, 0.32, tc.ss),
			SibM: at(4, 0.6, Middle),
		}
		next, out, deliver := nb.NextHop(RouteState{Target: tc.target, BitsLeft: 2, Hops: 1, WalkDir: tc.carried})
		want := nb.Succ
		if tc.want < 0 {
			want = nb.Pred
		}
		if deliver || next.ID != want.ID || out.WalkDir != tc.want || out.BitsLeft != 2 {
			t.Errorf("%s: went to %v (dir %d, %d bits, deliver %v), want %v (dir %d)",
				tc.name, next, out.WalkDir, out.BitsLeft, deliver, want, tc.want)
		}
	}
	// The seam flip beats the two-hop view: the ring's maximum, a right node,
	// sees a middle node two hops away across the seam and walks the other
	// way, since the halving map does not cross it.
	top := Neighborhood{
		Self: at(1, 0.95, Right), Pred: at(2, 0.9, Right), Succ: at(3, 0.01, Left),
		PredPred: at(5, 0.85, Right), SuccSucc: at(6, 0.02, Middle),
		SibM: at(4, 0.9, Middle),
	}
	next, out, _ := top.NextHop(RouteState{Target: fixpoint.Half, BitsLeft: 2, Hops: 1})
	if next.ID != top.Pred.ID || out.WalkDir != -1 {
		t.Errorf("the ring's maximum went to %v (dir %d), want its predecessor %v", next, out.WalkDir, top.Pred)
	}
}

func TestRouteStartsAtOwnMiddle(t *testing.T) {
	// A route that starts at a left or right node with bits to prepend first
	// takes the virtual edge to its own middle node, whatever its ring
	// neighbours are. That hop consumes no bit and sets no walk direction.
	// Without a middle sibling in its neighbourhood (a host whose middle node
	// still joins) the route walks the ring instead, its bits kept.
	net := buildNet(t, 64, 37)
	rng := xrand.New(11)
	jumps := map[Kind]int{}
	for trial := 0; trial < 2000; trial++ {
		nb := net.neighborhood(rng.Intn(net.ring.Len()))
		key := rng.Frac()
		rs := nb.NewRoute(key)
		if nb.Self.Kind == Middle || rs.BitsLeft == 0 || nb.Responsible(key) {
			continue
		}
		next, out, deliver := nb.NextHop(rs)
		if deliver || next.ID != nb.SibM.ID || out.BitsLeft != rs.BitsLeft || out.WalkDir != 0 || out.Hops != 1 {
			t.Fatalf("route from %v to %v with %d bits: first hop to %v with %+v, want its middle node %v",
				nb.Self, key, rs.BitsLeft, next, out, nb.SibM)
		}
		jumps[nb.Self.Kind]++
		nb.SibM = Ref{ID: sim.None}
		next, out, _ = nb.NextHop(rs)
		if (next.ID != nb.Pred.ID && next.ID != nb.Succ.ID) || out.BitsLeft != rs.BitsLeft || out.WalkDir == 0 {
			t.Fatalf("route from %v without a middle sibling: first hop to %v with %+v, want a ring neighbour and %d bits",
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
		rs := nb.NewRoute(key)
		for {
			next, out, deliver := nb.NextHop(rs)
			if nb.Responsible(key) != deliver {
				t.Fatalf("at %v (responsible %v) for %v with %d bits left: deliver=%v",
					nb.Self, nb.Responsible(key), key, rs.BitsLeft, deliver)
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
		if _, _, deliver := owner.NextHop(rs); !deliver {
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
	// floating point: for k ≥ 1, c·(k−1) + |x − frac(2^k·t)|·2^−k / ĝ gaps,
	// x the label of the node's own middle node; for k = 0 the walk from the
	// node to t the shorter way round; over 0 ≤ k ≤ ⌈log2(1/ĝ)⌉ − 1, ĝ the
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
					return math.Min(d, 1-d) / g
				}
				scale := math.Ldexp(1, k)
				return c*float64(k-1) + math.Abs(x-math.Mod(tf*scale, 1))/scale/g
			}
			k := nb.NewRoute(key).BitsLeft
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
				ks = append(ks, net.neighborhood(i).NewRoute(fixpoint.Half).BitsLeft)
			}
			sort.Ints(ks)
			if limit := int(math.Ceil(math.Log2(float64(3*n)))) - 2; ks[len(ks)/2] > limit {
				t.Errorf("n=%d seed %d: median node prepends %d bits on a %d-node ring, want ≤ %d (all: %v)", n, seed, ks[len(ks)/2], 3*n, limit, ks)
			}
		}
	}
	a := Ref{ID: 1, Point: Point{Label: fixpoint.FromFloat(0.9)}, Kind: Left}
	alone := Neighborhood{Self: a, Pred: a, Succ: a}
	if k := alone.NewRoute(fixpoint.Half).BitsLeft; k != 0 {
		t.Errorf("single node: %d bits, want 0", k)
	}
	for _, at := range []float64{0.9001, 0.1, 0.4, 0.8999} {
		b := Ref{ID: 2, Point: Point{Label: fixpoint.FromFloat(at)}, Kind: Right}
		two := Neighborhood{Self: a, Pred: b, Succ: b}
		if k := two.NewRoute(fixpoint.Half).BitsLeft; k != 0 {
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
			if net.neighborhood(i).Responsible(k) {
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

func TestSingleProcessTopology(t *testing.T) {
	// One process: chain l <- m <- r, anchor l.
	net := buildNet(t, 1, 42)
	l, m, r := net.neighborhood(0), net.neighborhood(1), net.neighborhood(2)
	if l.Self.Kind != Left || m.Self.Kind != Middle || r.Self.Kind != Right {
		t.Fatalf("ring order not l,m,r: %v %v %v", l.Self, m.Self, r.Self)
	}
	if !l.IsAnchor() {
		t.Fatalf("left node should be anchor")
	}
	if p, ok := m.Parent(); !ok || p.ID != l.Self.ID {
		t.Errorf("parent of middle should be left")
	}
	if p, ok := r.Parent(); !ok || p.ID != m.Self.ID {
		t.Errorf("parent of right should be middle")
	}
	lc := l.Children()
	if len(lc) != 1 || lc[0].ID != m.Self.ID {
		t.Errorf("children of left should be {middle}, got %v", lc)
	}
	mc := m.Children()
	if len(mc) != 1 || mc[0].ID != r.Self.ID {
		t.Errorf("children of middle should be {right}, got %v", mc)
	}
	if len(r.Children()) != 0 {
		t.Errorf("right node should be a leaf")
	}
}
