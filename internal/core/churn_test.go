package core

import (
	"slices"
	"strings"
	"testing"

	"skueue/internal/batch"
	"skueue/internal/fixpoint"
	"skueue/internal/ldb"
	"skueue/internal/seqcheck"
	"skueue/internal/transport"
	"skueue/internal/xrand"
)

// settleChurn runs until no process is joining/leaving-incomplete, the
// topology verifies and the tree agrees (treeAgreement), or fails the test.
func settleChurn(t *testing.T, cl *Cluster, maxTime int64) {
	t.Helper()
	ok := cl.Engine().RunUntil(func() bool {
		return cl.ChurnQuiescent() && cl.VerifyTopology() == nil && treeAgreement(cl) == nil
	}, maxTime)
	if !ok {
		for _, p := range cl.Processes() {
			if p.Joining {
				t.Logf("process %d still joining", p.ID)
			}
		}
		t.Fatalf("churn did not settle within %d: quiescent=%v topology=%v tree=%v",
			maxTime, cl.ChurnQuiescent(), cl.VerifyTopology(), treeAgreement(cl))
	}
}

func TestSingleJoinIntegrates(t *testing.T) {
	cl := newCluster(t, Config{Processes: 3, Seed: 100})
	cl.Run(5) // let the waves start
	p := cl.JoinProcess(0)
	settleChurn(t, cl, 5000)
	if cl.Processes()[p].Joining {
		t.Fatalf("process %d not integrated", p)
	}
	ring := cl.LiveRing()
	if ring.Len() != 12 {
		t.Fatalf("ring has %d nodes, want 12", ring.Len())
	}
	if err := cl.VerifyTopology(); err != nil {
		t.Fatalf("topology: %v", err)
	}
}

func TestJoinThenOperate(t *testing.T) {
	cl := newCluster(t, Config{Processes: 3, Seed: 101})
	cl.Run(5)
	p := cl.JoinProcess(1)
	settleChurn(t, cl, 5000)
	// The new process can enqueue/dequeue like anyone else. Drain the
	// enqueues first so the dequeues are guaranteed to find them.
	c := cl.Client(p)
	cl.Enqueue(c)
	cl.Enqueue(c)
	drainAndCheck(t, cl, 10000)
	cl.Dequeue(cl.Client(0))
	cl.Dequeue(cl.Client(0))
	drainAndCheck(t, cl, 10000)
	st := seqcheck.Summarize(cl.History())
	if st.Bottoms != 0 {
		t.Fatalf("dequeues missed elements enqueued by the joiner: %+v", st)
	}
}

func TestJoinWhileLoaded(t *testing.T) {
	// Join in the middle of request traffic; everything stays consistent
	// and no element is lost.
	cl := newCluster(t, Config{Processes: 4, Seed: 102, ShuffleTimeouts: true})
	rng := xrand.New(5)
	enq := 0
	for round := 0; round < 40; round++ {
		clients := cl.ActiveClients()
		c := clients[rng.Intn(len(clients))]
		if rng.Bool(0.7) {
			cl.Enqueue(c)
			enq++
		} else {
			cl.Dequeue(c)
		}
		if round == 10 {
			cl.JoinProcess(0)
		}
		if round == 25 {
			cl.JoinProcess(2)
		}
		cl.Step()
	}
	settleChurn(t, cl, 20000)
	drainAndCheck(t, cl, 20000)
	st := seqcheck.Summarize(cl.History())
	returned := st.Dequeues - st.Bottoms
	if returned+cl.TotalStored() != enq {
		t.Fatalf("element conservation broken across join: %d + %d != %d",
			returned, cl.TotalStored(), enq)
	}
}

func TestJoinMovesData(t *testing.T) {
	// Fill the DHT, then join: the new nodes must end up owning the keys
	// in their intervals, and dequeues must still find everything.
	cl := newCluster(t, Config{Processes: 3, Seed: 103})
	const k = 60
	for i := 0; i < k; i++ {
		cl.Enqueue(cl.Client(i % 3))
	}
	drainAndCheck(t, cl, 10000)
	p := cl.JoinProcess(0)
	settleChurn(t, cl, 10000)
	// New process should have received some data (60 keys over 12 nodes).
	got := 0
	for _, id := range cl.Processes()[p].Nodes {
		if n, ok := cl.Node(id); ok {
			got += n.Store().Len()
		}
	}
	t.Logf("joiner holds %d of %d elements", got, k)
	if cl.TotalStored() != k {
		t.Fatalf("stored %d, want %d", cl.TotalStored(), k)
	}
	for i := 0; i < k; i++ {
		cl.Dequeue(cl.Client(i % 4))
	}
	drainAndCheck(t, cl, 20000)
	st := seqcheck.Summarize(cl.History())
	if st.Bottoms != 0 {
		t.Fatalf("lost elements across join: %d ⊥ dequeues", st.Bottoms)
	}
}

func TestJoinLeftOfAnchorMovesRole(t *testing.T) {
	// Join processes until one lands left of the anchor; the anchor role
	// must follow the leftmost node.
	cl := newCluster(t, Config{Processes: 2, Seed: 104})
	cl.Run(5)
	for i := 0; i < 6; i++ {
		cl.JoinProcess(0)
		settleChurn(t, cl, 20000)
	}
	if err := cl.VerifyTopology(); err != nil {
		t.Fatalf("topology/anchor: %v", err)
	}
	// And the queue still works.
	cl.Enqueue(cl.Client(3))
	cl.Dequeue(cl.Client(5))
	drainAndCheck(t, cl, 20000)
}

func TestSingleLeave(t *testing.T) {
	cl := newCluster(t, Config{Processes: 4, Seed: 105})
	cl.Run(5)
	cl.LeaveProcess(2)
	settleChurn(t, cl, 20000)
	ring := cl.LiveRing()
	if ring.Len() != 9 {
		t.Fatalf("ring has %d nodes after leave, want 9", ring.Len())
	}
	cl.Enqueue(cl.Client(0))
	cl.Dequeue(cl.Client(1))
	drainAndCheck(t, cl, 20000)
}

func TestLeavePreservesData(t *testing.T) {
	cl := newCluster(t, Config{Processes: 4, Seed: 106})
	const k = 40
	for i := 0; i < k; i++ {
		cl.Enqueue(cl.Client(i % 4))
	}
	drainAndCheck(t, cl, 10000)
	cl.LeaveProcess(1)
	settleChurn(t, cl, 30000)
	if cl.TotalStored() != k {
		t.Fatalf("stored %d after leave, want %d", cl.TotalStored(), k)
	}
	for i := 0; i < k; i++ {
		cl.Dequeue(cl.Client([]int{0, 2, 3}[i%3]))
	}
	drainAndCheck(t, cl, 30000)
	if st := seqcheck.Summarize(cl.History()); st.Bottoms != 0 {
		t.Fatalf("lost %d elements across leave", st.Bottoms)
	}
}

func TestAnchorLeave(t *testing.T) {
	// The process owning the anchor leaves; the role must survive and the
	// structure must keep working.
	cl := newCluster(t, Config{Processes: 4, Seed: 107})
	cl.Run(5)
	a := cl.AnchorNode()
	if a == nil {
		t.Fatalf("no anchor")
	}
	var anchorProc int = -1
	for i, p := range cl.Processes() {
		for _, id := range p.Nodes {
			if id == a.Ref().ID {
				anchorProc = i
			}
		}
	}
	if anchorProc < 0 {
		t.Fatalf("anchor not owned by any process")
	}
	cl.Enqueue(cl.Client((anchorProc + 1) % 4))
	drainAndCheck(t, cl, 10000)
	cl.LeaveProcess(anchorProc)
	settleChurn(t, cl, 30000)
	if err := cl.VerifyTopology(); err != nil {
		t.Fatalf("topology after anchor leave: %v", err)
	}
	cl.Dequeue(cl.Client((anchorProc + 2) % 4))
	drainAndCheck(t, cl, 20000)
	if st := seqcheck.Summarize(cl.History()); st.Bottoms != 0 {
		t.Fatalf("element lost across anchor leave")
	}
}

func TestAdjacentLeavesPrioritize(t *testing.T) {
	// Several processes leave concurrently; the label-order priority must
	// untangle adjacent leavers.
	cl := newCluster(t, Config{Processes: 6, Seed: 108})
	cl.Run(5)
	cl.LeaveProcess(1)
	cl.LeaveProcess(2)
	cl.LeaveProcess(3)
	settleChurn(t, cl, 60000)
	if got := cl.LiveRing().Len(); got != 9 {
		t.Fatalf("ring has %d nodes, want 9", got)
	}
	cl.Enqueue(cl.Client(0))
	cl.Dequeue(cl.Client(4))
	drainAndCheck(t, cl, 20000)
}

func TestChurnStorm(t *testing.T) {
	// Joins and leaves interleaved with traffic across several seeds.
	for seed := int64(110); seed < 114; seed++ {
		cl := newCluster(t, Config{Processes: 5, Seed: seed, ShuffleTimeouts: true})
		rng := xrand.New(seed)
		enq, deqHit := 0, 0
		for round := 0; round < 120; round++ {
			clients := cl.ActiveClients()
			if len(clients) > 0 && rng.Bool(0.8) {
				c := clients[rng.Intn(len(clients))]
				if rng.Bool(0.6) {
					cl.Enqueue(c)
					enq++
				} else {
					cl.Dequeue(c)
				}
			}
			switch round {
			case 20:
				cl.JoinProcess(0)
			case 45:
				cl.LeaveProcess(2)
			case 70:
				cl.JoinProcess(4)
			case 95:
				cl.LeaveProcess(1)
			}
			cl.Step()
		}
		settleChurn(t, cl, 60000)
		drainAndCheck(t, cl, 60000)
		st := seqcheck.Summarize(cl.History())
		deqHit = st.Dequeues - st.Bottoms
		if deqHit+cl.TotalStored() != enq {
			t.Fatalf("seed %d: conservation broken: %d + %d != %d",
				seed, deqHit, cl.TotalStored(), enq)
		}
	}
}

// TestParentMatchesNeighbourhoodUnderChurn: in every round of a churn run,
// every node that has not departed — joiners not yet spliced in included —
// reports to the node its neighbourhood says (Node.parent is
// ldb.Neighborhood.Parent read off the stored up edge), and the
// tree's height is defined. treeAgreement checks the first only once churn
// has settled.
func TestParentMatchesNeighbourhoodUnderChurn(t *testing.T) {
	for seed := int64(110); seed < 112; seed++ {
		joiners := 0
		cl, err := RunSchedule(seed, func(cl *Cluster, round int) {
			for _, n := range cl.nodes {
				if n.churn.departed {
					continue
				}
				if n.churn.joining {
					joiners++
				}
				p, ok := n.hood.Parent(n.self)
				if q, qok := n.parent(); q.ID != p.ID || qok != ok {
					t.Fatalf("seed %d round %d: %v (joining %v) reports to %v (%v), its neighbourhood says %v (%v)",
						seed, round, n.self, n.churn.joining, q, qok, p, ok)
				}
			}
			if h := cl.TreeHeight(); h < 0 {
				t.Fatalf("seed %d round %d: the parent chain cycles", seed, round)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if joiners == 0 {
			t.Fatalf("seed %d: no joining node seen; the test exercises too little", seed)
		}
		settleChurn(t, cl, 60000)
	}
}

// TestNoParentCycleUnderChurn: the parent chain never cycles, in any round
// of the schedule (RunSchedule), over 300 seeds. When the left and middle
// nodes of a triad each worked the up edge out from their own edges and the
// other's as last told, both could read the other's stale edge as the better
// one and report to each other for a round (54 seeds of 2 000). The left
// node decides now, and reports to its middle node only once that one has
// confirmed (ldb.Neighborhood.ActingUp).
func TestNoParentCycleUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		_, err := RunSchedule(seed, func(cl *Cluster, round int) {
			if cl.TreeHeight() < 0 {
				t.Fatalf("seed %d round %d: the parent chain cycles", seed, round)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestScheduleDrains: two runs of the schedule that once did not end.
//   - Seed 1: a JOIN request reached a replacement that had already sent
//     its absorb to its pred. It adopted the joiner into a list that had
//     left with the absorb, and no node ever spliced the joiner in. A
//     dissolving replacement now passes the request to its pred
//     (handleRoutedChurn).
//   - Seed 1559: a relay absorbed the replacement after the last joiner it
//     relays for, and the data it took over lay past that joiner's range.
//     The relay sent it to the joiner, which bounced it back, 65 536 times
//     within one round. A relay keeps what lies past its joiners' ranges
//     until it splices them in (churnState.joinerFor).
func TestScheduleDrains(t *testing.T) {
	for _, seed := range []int64{1, 1559} {
		cl, err := RunSchedule(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		settleChurn(t, cl, 60000)
		drainAndCheck(t, cl, 60000)
	}
}

func TestChurnAsyncConsistency(t *testing.T) {
	for seed := int64(120); seed < 124; seed++ {
		cl := newCluster(t, Config{
			Processes: 4, Seed: seed, Async: true, MaxDelay: 8, TimeoutEvery: 4,
		})
		rng := xrand.New(seed)
		cl.Run(20)
		for burst := 0; burst < 20; burst++ {
			clients := cl.ActiveClients()
			c := clients[rng.Intn(len(clients))]
			if rng.Bool(0.5) {
				cl.Enqueue(c)
			} else {
				cl.Dequeue(c)
			}
			if burst == 6 {
				cl.JoinProcess(0)
			}
			if burst == 14 {
				cl.LeaveProcess(3)
			}
			cl.Run(int64(5 + rng.Intn(30)))
		}
		settleChurn(t, cl, 300000)
		drainAndCheck(t, cl, 300000)
	}
}

func TestStackWithChurn(t *testing.T) {
	cl := newCluster(t, Config{Processes: 4, Seed: 130, Mode: batch.Stack})
	rng := xrand.New(9)
	for round := 0; round < 80; round++ {
		clients := cl.ActiveClients()
		c := clients[rng.Intn(len(clients))]
		if rng.Bool(0.6) {
			cl.Enqueue(c)
		} else {
			cl.Dequeue(c)
		}
		if round == 20 {
			cl.JoinProcess(1)
		}
		if round == 50 {
			cl.LeaveProcess(0)
		}
		cl.Step()
	}
	settleChurn(t, cl, 60000)
	drainAndCheck(t, cl, 60000)
}

func TestManyJoinsAtOnce(t *testing.T) {
	// Theorem 17 flavour: a burst of joins integrates within one or few
	// update phases.
	cl := newCluster(t, Config{Processes: 4, Seed: 131})
	cl.Run(5)
	for i := 0; i < 6; i++ {
		cl.JoinProcess(i % 4)
	}
	settleChurn(t, cl, 60000)
	if got := cl.LiveRing().Len(); got != 30 {
		t.Fatalf("ring has %d nodes, want 30", got)
	}
	// The system stays functional afterwards.
	for i := 0; i < 10; i++ {
		cl.Enqueue(cl.Client(i % 10))
	}
	drainAndCheck(t, cl, 30000)
	for i := 0; i < 10; i++ {
		cl.Dequeue(cl.Client((i + 3) % 10))
	}
	drainAndCheck(t, cl, 30000)
	if st := seqcheck.Summarize(cl.History()); st.Bottoms != 0 {
		t.Fatalf("lost elements after join burst")
	}
}

func TestJoinersBelowRingSeam(t *testing.T) {
	// Regression: the node before the 0/1 seam (the ring maximum) adopts
	// joiners on both sides of the wrap; chaining them by absolute label
	// order instead of clockwise order corrupted the ring and stranded the
	// anchor role. A large burst at a small base reliably hits the seam.
	for seed := int64(3); seed < 12; seed++ {
		cl := newCluster(t, Config{Processes: 8, Seed: seed})
		cl.Run(5)
		for i := 0; i < 8; i++ {
			cl.JoinProcess(i % 8)
		}
		settleChurn(t, cl, 200000)
		// The system must remain live: new requests still complete.
		cl.Enqueue(cl.Client(9))
		cl.Dequeue(cl.Client(12))
		drainAndCheck(t, cl, 30000)
	}
}

func TestLivenessAfterChurn(t *testing.T) {
	// A settled system must still process traffic — wedged waves hide
	// behind drained pre-churn requests otherwise.
	cl := newCluster(t, Config{Processes: 5, Seed: 140, ShuffleTimeouts: true})
	rng := xrand.New(1)
	for round := 0; round < 100; round++ {
		clients := cl.ActiveClients()
		if rng.Bool(0.5) {
			c := clients[rng.Intn(len(clients))]
			cl.Enqueue(c)
		}
		switch round {
		case 10:
			cl.JoinProcess(0)
		case 40:
			cl.LeaveProcess(1)
		case 70:
			cl.JoinProcess(3)
		}
		cl.Step()
	}
	settleChurn(t, cl, 100000)
	drainAndCheck(t, cl, 100000)
	// Fresh traffic after full quiescence.
	clients := cl.ActiveClients()
	for i := 0; i < 10; i++ {
		cl.Enqueue(clients[i%len(clients)])
		cl.Dequeue(clients[(i+3)%len(clients)])
	}
	drainAndCheck(t, cl, 60000)
}

func TestRejoinAfterLeave(t *testing.T) {
	// Processes can come and go repeatedly.
	cl := newCluster(t, Config{Processes: 4, Seed: 142})
	cl.Run(5)
	for cycle := 0; cycle < 3; cycle++ {
		p := cl.JoinProcess(0)
		settleChurn(t, cl, 100000)
		cl.Enqueue(cl.Client(p))
		drainAndCheck(t, cl, 30000)
		cl.LeaveProcess(p)
		settleChurn(t, cl, 200000)
	}
	if got := cl.LiveRing().Len(); got != 12 {
		t.Fatalf("ring size %d after 3 join/leave cycles, want 12", got)
	}
	// All enqueued elements still retrievable.
	for i := 0; i < 3; i++ {
		cl.Dequeue(cl.Client(1))
	}
	drainAndCheck(t, cl, 30000)
	if st := seqcheck.Summarize(cl.History()); st.Bottoms != 0 {
		t.Fatalf("lost elements across rejoin cycles")
	}
}

// TestRouteAvoidsUnintegratedSibling: the triad of a joining process is
// integrated node by node, and a JOIN request is routed. A middle node that
// is already a ring member must not prepend a bit over the virtual edge to a
// sibling that is not — that sibling holds what it cannot route yet, and if
// the request is its own, it would wait for itself. The route gives up its
// remaining bits and closes by the linear walk over the ring nodes it can
// see.
func TestRouteAvoidsUnintegratedSibling(t *testing.T) {
	cl, net := churnNet(t, Config{Processes: 4, Seed: 5}, 5)
	for _, kind := range []ldb.Kind{ldb.Left, ldb.Right} {
		mid, _ := cl.Node(cl.Client(1))
		// Two bits left and bit 2 of the target selects the sibling. The
		// target is one whose owner the middle node cannot see, which it
		// would go to straight.
		sib := map[ldb.Kind]ldb.Ref{ldb.Left: mid.hood.SibL, ldb.Right: mid.hood.SibR}[kind]
		nibbles := []fixpoint.Frac{0x3, 0xb, 0x1, 0x9} // 0.x0x1…: bit 2 = 0
		if kind == ldb.Right {
			nibbles = []fixpoint.Frac{0x7, 0xf, 0x5, 0xd} // bit 2 = 1
		}
		seen := []transport.NodeID{mid.self.ID, mid.hood.Pred.ID, mid.hood.Succ.ID, mid.hood.PredView.Edges.Pred.ID}
		i := slices.IndexFunc(nibbles, func(x fixpoint.Frac) bool {
			return !slices.Contains(seen, cl.LiveRing().ResponsibleFor(x<<60).ID)
		})
		if i < 0 {
			t.Fatalf("%v sees the owner of every target; pick another seed", mid.self)
		}
		target := nibbles[i] << 60
		send := func() memEnv {
			t.Helper()
			net.queue = nil
			mid.routeStep(net.ctxs[mid.self.ID], routedMsg{RS: ldb.RouteState{Target: target, BitsLeft: 2}, Inner: joinReq{NewNode: sib}})
			if len(net.queue) != 1 {
				t.Fatalf("routeStep sent %d frames", len(net.queue))
			}
			return net.queue[0]
		}
		if e := send(); e.to != sib.ID || e.payload.(routedMsg).RS.BitsLeft != 1 {
			t.Fatalf("integrated %v sibling: hop went to %d with %+v, want the De Bruijn hop to %v", kind, e.to, e.payload, sib)
		}
		mid.hood.SibIn[kind] = false
		e := send()
		if !slices.Contains([]transport.NodeID{mid.hood.Pred.ID, mid.hood.Succ.ID, mid.hood.PredView.Edges.Pred.ID, mid.hood.SuccView.Edges.Succ.ID}, e.to) || e.to == sib.ID {
			t.Fatalf("unintegrated %v sibling: hop went to %d, want a ring node it can see (%v or %v, or one two hops away)", kind, e.to, mid.hood.Pred, mid.hood.Succ)
		}
		if rs := e.payload.(routedMsg).RS; rs.BitsLeft != 0 || rs.Hops != 1 {
			t.Fatalf("unintegrated %v sibling: route state %+v, want no bits left and one hop counted", kind, rs)
		}
		mid.hood.SibIn[kind] = true
	}
	net.queue = nil
}

// TestHandedEpochSkipsFoldedWave: a node handed the epoch outside the
// flagged wave waits, before it acknowledges, for its pipelined waves at
// p_old to come back — but not for one p_old reports it had folded before
// the phase reached it. That wave rides in p_old's own wave across the
// phase and is served after it; waiting for it wedged the phase (skueue-verify,
// queue seed 33 with churn).
func TestHandedEpochSkipsFoldedWave(t *testing.T) {
	for _, tc := range []struct {
		folded int64
		ack    bool
	}{{folded: 5, ack: true}, {folded: 4, ack: false}} {
		cl, net := churnNet(t, Config{Processes: 3, Seed: 9}, 9)
		mid, _ := cl.Node(cl.Client(1))
		right, _ := cl.Node(mid.hood.SibR.ID)
		right.waveSeq = 5
		right.inFlight = []wave{{Seq: 5, Prev: 4, To: mid.self.ID}}
		net.queue = nil
		epoch := right.churn.lastEpoch + 1
		right.OnMessage(net.ctxs[right.self.ID], mid.self.ID, serveMsg{UpdateEpoch: epoch, Folded: tc.folded})
		acked := slices.ContainsFunc(net.queue, func(e memEnv) bool {
			m, ok := e.payload.(updateAck)
			return ok && e.to == mid.self.ID && m.Epoch == epoch
		})
		if acked != tc.ack {
			t.Errorf("wave 5 in flight to p_old, which folded up to wave %d: acknowledged %v, want %v", tc.folded, acked, tc.ack)
		}
		net.queue = nil
	}
}

// TestRouteStartAvoidsUnintegratedMiddle: a route that starts at a left or
// right node first jumps to its own middle node. While that sibling is not a
// ring member yet it would hold the route, so the route walks the ring, to a
// neighbour or a node two hops away, to another middle node instead. It keeps its bits: giving them up, as the
// bit-hop guard does, would turn it into the whole linear walk.
func TestRouteStartAvoidsUnintegratedMiddle(t *testing.T) {
	cl, net := churnNet(t, Config{Processes: 4, Seed: 5}, 5)
	checked := 0
	for p := 0; p < 4; p++ {
		mid, _ := cl.Node(cl.Client(p))
		for _, id := range []transport.NodeID{mid.hood.SibL.ID, mid.hood.SibR.ID} {
			n, _ := cl.Node(id)
			target := n.self.Point.Label + fixpoint.Half // across the ring
			if slices.Contains([]transport.NodeID{n.hood.Pred.ID, n.hood.Succ.ID, n.hood.PredView.Edges.Pred.ID, n.hood.SuccView.Edges.Succ.ID}, mid.self.ID) || n.hood.Responsible(n.self, target) {
				continue // the ring walk could reach the same middle node
			}
			send := func() (transport.NodeID, ldb.RouteState) {
				t.Helper()
				net.queue = nil
				n.routeStep(net.ctxs[n.self.ID], routedMsg{RS: ldb.RouteState{Target: target, BitsLeft: 2}, Inner: joinReq{NewNode: mid.self}})
				if len(net.queue) != 1 {
					t.Fatalf("routeStep sent %d frames", len(net.queue))
				}
				return net.queue[0].to, net.queue[0].payload.(routedMsg).RS
			}
			if to, rs := send(); to != mid.self.ID || rs.BitsLeft != 2 || rs.Hops != 1 {
				t.Fatalf("%v with an integrated middle sibling: hop to %d with %+v, want the jump to %v", n.self, to, rs, mid.self)
			}
			n.hood.SibIn[ldb.Middle] = false
			ring := []transport.NodeID{n.hood.Pred.ID, n.hood.Succ.ID, n.hood.PredView.Edges.Pred.ID, n.hood.SuccView.Edges.Succ.ID}
			if to, rs := send(); !slices.Contains(ring, to) || to == mid.self.ID || rs.BitsLeft != 2 || rs.Hops != 1 || rs.WalkDir == 0 {
				t.Fatalf("%v with its middle sibling joining: hop to %d with %+v, want a ring node it can see (%v or %v, or one two hops away), both bits kept", n.self, to, rs, n.hood.Pred, n.hood.Succ)
			}
			n.hood.SibIn[ldb.Middle] = true
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("every left and right node is a ring neighbour of its middle node; pick another seed")
	}
	net.queue = nil
}

// TestDissolveQueryAnsweredToAsker: a dissolveQuery sent to a sibling that
// has just left arrives through that sibling's forwarder, so the frame's
// sender is not who asked. The vote goes to the node the query names, at
// once or — for a phase the node has not entered yet — when it is held.
func TestDissolveQueryAnsweredToAsker(t *testing.T) {
	cl, net := churnNet(t, Config{Processes: 3, Seed: 9}, 9)
	n, _ := cl.Node(cl.Client(0))
	const asker, forwarder = transport.NodeID(1<<20 + 1), transport.NodeID(2)
	net.queue = nil
	n.OnMessage(net.ctxs[n.self.ID], forwarder, dissolveQuery{From: asker, Epoch: n.churn.lastEpoch})
	if len(net.queue) != 1 || net.queue[0].to != asker {
		t.Fatalf("vote on a past phase went to %+v, want one reply to %d", net.queue, asker)
	}
	net.queue = nil
	n.OnMessage(net.ctxs[n.self.ID], forwarder, dissolveQuery{From: asker, Epoch: n.churn.lastEpoch + 1})
	if len(net.queue) != 0 || len(n.churn.heldQueries) != 1 || n.churn.heldQueries[0].from != asker {
		t.Fatalf("query for a phase not entered yet: sent %+v, held %+v, want it held for %d", net.queue, n.churn.heldQueries, asker)
	}
	n.churn.heldQueries = nil
}

// TestNodeHoldsBatchWhileParentJoins: the triad of a joining process can be
// integrated over several update phases, so a middle node may be a ring
// member while its tree parent, the left sibling, is not. It must hold its
// batch until the sibling's hello: fired, the batch would be bounced by a
// node that has no children while it joins, re-fired on readiness and
// bounced again, at message speed between two nodes of one process.
func TestNodeHoldsBatchWhileParentJoins(t *testing.T) {
	cl, net := churnNet(t, Config{Processes: 3, Seed: 11}, 11)
	net.tick()
	net.settle(nil)
	mid, _ := cl.Node(cl.Client(1))
	left, _ := cl.Node(mid.hood.SibL.ID)
	mid.hood.SibIn[ldb.Left] = false // what mid knows of a left sibling still joining
	if !mid.parentJoining() {
		t.Fatal("a middle node whose left sibling is not integrated reports a parent")
	}
	wave := mid.waveSeq
	cl.Enqueue(mid.self.ID)
	for i := 0; i < 3; i++ {
		net.tick()
		net.settle(nil)
	}
	if mid.waveSeq != wave || len(mid.inFlight) != 0 || cl.Finished() != 0 {
		t.Fatalf("fired wave %d (was %d) into a parent that is still joining; %d operations finished", mid.waveSeq, wave, cl.Finished())
	}
	if d := cl.Diagnose(); len(d) != 1 || !strings.Contains(d[0], "holds its batch") {
		t.Fatalf("Diagnose does not explain the hold: %q", d)
	}
	said := ldb.View{Edges: ldb.Edges{Pred: left.hood.Pred, Succ: left.hood.Succ}, Seq: left.hood.RingSeq}
	mid.OnMessage(net.ctxs[mid.self.ID], left.self.ID, hello{From: left.self, To: mid.self.Point, Said: said})
	net.settle(nil)
	if cl.Finished() != 1 {
		t.Fatalf("%d operations finished after the sibling's hello, want 1 with no further tick", cl.Finished())
	}
	// Three kinds of node never wait for a sibling: the anchor (it assigns
	// itself — a joining triad's middle node can be the ring's minimum while
	// its left sibling still joins), a joiner (it reports to its relay) and a
	// left node (its parent is a ring neighbour).
	mid.hood.SibIn[ldb.Left] = false
	mid.anchorRole = true
	if mid.parentJoining() {
		t.Error("the anchor holds its batch for a parent it does not have")
	}
	mid.anchorRole, mid.churn.joining = false, true
	if mid.parentJoining() {
		t.Error("a joiner holds its batch for its sibling instead of its relay")
	}
	mid.churn.joining, mid.hood.SibIn[ldb.Left] = false, true
	left.hood.SibIn = [3]bool{true, false, false}
	if left.parentJoining() {
		t.Error("a left node holds its batch for a sibling")
	}
	left.hood.SibIn = [3]bool{true, true, true}
}

// TestLeftNodeHoldsUntilEdgeConfirmed: after what a left node tells its ring
// neighbours changes (ringChanged), it holds its batch until the node it
// reports to has answered its hello, and fires the moment it has, with
// no tick. Fired before, the batch could reach a parent that does not yet
// count the node as a child and be bounced back and forth at message speed.
func TestLeftNodeHoldsUntilEdgeConfirmed(t *testing.T) {
	cl, net := churnNet(t, Config{Processes: 4, Seed: 11}, 11)
	net.tick()
	net.settle(nil)
	var left *Node
	for _, n := range cl.nodes {
		if n.self.Kind == ldb.Left && !n.anchorRole && (left == nil || n.self.ID < left.self.ID) {
			left = n
		}
	}
	left.ringChanged(net.ctxs[left.self.ID], left.hood.Pred, left.hood.Succ)
	if !left.parentJoining() {
		t.Fatal("a left node whose parent has not confirmed its news reports a parent")
	}
	wave := left.waveSeq
	cl.Enqueue(left.self.ID)
	left.OnReady(net.ctxs[left.self.ID])
	left.OnTimeout(net.ctxs[left.self.ID])
	if left.waveSeq != wave {
		t.Fatalf("fired wave %d before its parent confirmed the edge", left.waveSeq)
	}
	net.settle(nil)
	if left.parentJoining() || cl.Finished() != 1 {
		t.Fatalf("after the hellos: holding %v, %d operations finished; want false and 1 with no tick", left.parentJoining(), cl.Finished())
	}
	if err := treeAgreement(cl); err != nil {
		t.Fatal(err)
	}
}
