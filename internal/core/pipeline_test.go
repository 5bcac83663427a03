package core

import (
	"math"
	"testing"

	"skueue/internal/batch"
	"skueue/internal/seqcheck"
	"skueue/internal/transport"
	"skueue/internal/xrand"
)

// loadSim offers ops operations a round, at random clients and with random
// priorities where the discipline has them, for rounds rounds, and returns
// how many were enqueues.
func loadSim(cl *Cluster, rng *xrand.RNG, rounds, ops int) int {
	enq := 0
	for r := 0; r < rounds; r++ {
		clients := cl.ActiveClients()
		for i := 0; i < ops; i++ {
			c := clients[rng.Intn(len(clients))]
			if rng.Bool(0.55) {
				cl.EnqueuePriBlob(c, int32(rng.Intn(cl.HeapLevels())), nil)
				enq++
			} else {
				cl.Dequeue(c)
			}
		}
		cl.Run(1)
	}
	return enq
}

// checkElements asserts exact element accounting: every element enqueued
// was either dequeued once or is still stored.
func checkElements(t *testing.T, cl *Cluster, enq int) {
	t.Helper()
	st := seqcheck.Summarize(cl.History())
	if out := st.Dequeues - st.Bottoms; out+cl.TotalStored() != enq {
		t.Fatalf("%d elements out + %d stored != %d in", out, cl.TotalStored(), enq)
	}
}

// TestPipelinedWavesAsync runs queue and heap clusters of 32 processes on
// the asynchronous simulator, whose channels reorder (MaxDelay 8), under a
// load that keeps nodes firing while their last waves are in flight: fifty
// seeds each, every one with a pipeline at least three waves deep. A
// child's waves may reach its parent in any order and serves may come back
// in any order; Definition 1 (or its priority generalization) and exact
// element accounting must hold all the same.
func TestPipelinedWavesAsync(t *testing.T) {
	for _, tc := range []Config{{Mode: batch.Queue}, {Mode: batch.Heap, HeapLevels: 3}} {
		mode := tc.Mode
		for seed := int64(1); seed <= 50; seed++ {
			cfg := tc
			cfg.Processes, cfg.Seed, cfg.Async, cfg.MaxDelay = 32, seed, true, 8
			cl := newCluster(t, cfg)
			enq := loadSim(cl, xrand.New(seed), 40, 12)
			drainAndCheck(t, cl, 100000)
			checkElements(t, cl, enq)
			if m := cl.Metrics(); m.MaxWavesInFlight < 3 || m.PipelinedFires == 0 {
				t.Fatalf("%v seed %d: deepest pipeline %d waves, %d pipelined fires; the load did not pipeline", mode, seed, m.MaxWavesInFlight, m.PipelinedFires)
			}
		}
	}
}

// TestPipelineDepthBounded runs the synchronous simulator at the shape of
// the benchmark's sim-256 workload — 256 processes, 10 requests a round,
// seed 1, 2 000 rounds — and pins counts that are exact for the seed.
// The deepest pipeline stays within 2 × the tree height: a parent folds
// one wave per child per fire, so a node that fires less often than its
// child lets waves pile up below it, which is how TIMEOUT run parent-first
// within a process once cost a thousand rounds an operation, and how an
// anchor that waits for every child does under the tree of
// ldb.Neighborhood.Parent (it fires on work instead, Node.tryFire). The
// mean operation takes at most 30 rounds (29.69 at the time of writing:
// wait 1.00 + tree 21.89 + route 6.81): the tree and the route are charged
// only for the hops between processes, a process reports over the best of
// its left and middle nodes' ring edges, and the route is planned at that
// price and hops to the nodes two hops away (ldb.NewRoute, ldb.NextHop).
// And the tree term
// of the split (Cluster.Split) is within a tenth of a round of twice the
// mean depth between processes (21.89 against 2 × 10.94): a wave pays one
// round per edge each way and nothing else, because a parent keeps pace with
// a child that pipelines (Node.carriesOps) — without that rule the term is
// about two rounds over — and because a site runs TIMEOUT children first for
// the triad's current root (Node.orderSite) — with a middle node that holds
// the up edge run before its left sibling it is 0.15 over.
func TestPipelineDepthBounded(t *testing.T) {
	cl := newCluster(t, Config{Processes: 256, Seed: 1})
	enq := loadSim(cl, xrand.New(1), 2000, 10)
	drainAndCheck(t, cl, 100000)
	checkElements(t, cl, enq)
	var rounds int64
	for _, op := range cl.History().Ops {
		rounds += op.Done - op.Born
	}
	mean := float64(rounds) / float64(cl.History().Len())
	m, height := cl.Metrics(), cl.TreeHeight()
	split := cl.Split()
	wait, tree, route, depth := split.Means()
	t.Logf("deepest pipeline %d waves, tree height %d, %.2f rounds per operation: wait %.2f + tree %.2f + route %.2f, mean depth %.2f between processes",
		m.MaxWavesInFlight, height, mean, wait, tree, route, depth)
	if m.MaxWavesInFlight > 2*height {
		t.Errorf("deepest pipeline %d waves, over 2 × the tree height %d", m.MaxWavesInFlight, height)
	}
	if mean > 30 {
		t.Errorf("%.2f rounds per operation, want at most 30", mean)
	}
	if split.Ops != int64(cl.History().Len()) || math.Abs(wait+tree+route-mean) > 1e-9 {
		t.Errorf("the split counts %d operations of %d, %.2f rounds of %.2f", split.Ops, cl.History().Len(), wait+tree+route, mean)
	}
	if math.Abs(tree-2*depth) > 0.1 {
		t.Errorf("tree term %.2f rounds, not within a tenth of a round of 2 × the mean depth %.2f", tree, depth)
	}
}

// TestPipelineFoldsInOrder: a channel that reorders delivers a child's wave
// v+1 to its parent before wave v. The parent holds v+1 — it is not
// foldable while v is not folded — and then folds v first and v+1 in the
// wave after, so the child's operations keep their program order.
func TestPipelineFoldsInOrder(t *testing.T) {
	net := newMemNet(t)
	cl, err := NewMember(Config{Processes: 2, Seed: 7}, 0, []int32{0, 1}, net)
	if err != nil {
		t.Fatal(err)
	}
	net.tick()
	net.settle(nil)
	child, _ := cl.Node(cl.Client(0))
	pref, _ := child.hood.Parent(child.self)
	parent, _ := cl.Node(pref.ID)
	type fold struct {
		node   transport.NodeID
		folded []FoldedWaveImage
	}
	var fires []fold
	cl.SetOnFire(func(node transport.NodeID, _ int64, folded []FoldedWaveImage) {
		fires = append(fires, fold{node, folded})
	})

	cl.Enqueue(child.self.ID)
	child.OnReady(net.ctxs[child.self.ID]) // wave v
	cl.Enqueue(child.self.ID)
	child.OnReady(net.ctxs[child.self.ID]) // wave v+1, fired with v in flight
	if len(child.inFlight) != 2 || len(net.queue) != 2 {
		t.Fatalf("child has %d waves in flight and %d frames queued, want 2 and 2", len(child.inFlight), len(net.queue))
	}
	v := child.inFlight[0].Seq
	net.queue[0], net.queue[1] = net.queue[1], net.queue[0]
	fires = nil

	first := net.pop()
	if m, ok := first.payload.(aggregateMsg); !ok || m.WaveSeq != v+1 || m.Prev != v {
		t.Fatalf("first delivery %+v, want wave %d chained to %d", first.payload, v+1, v)
	}
	parent.OnMessage(net.ctxs[parent.self.ID], first.from, first.payload)
	net.ready()
	if len(fires) != 0 {
		t.Fatalf("the parent fired on wave %d before wave %d arrived: %+v", v+1, v, fires)
	}
	net.settle(nil)
	var order []int64
	for _, f := range fires {
		if f.node != parent.self.ID {
			continue
		}
		for _, w := range f.folded {
			if w.From == child.self.ID {
				order = append(order, w.WaveSeq)
			}
		}
	}
	if len(order) != 2 || order[0] != v || order[1] != v+1 {
		t.Fatalf("the parent folded the child's waves as %v, want [%d %d] in two fires", order, v, v+1)
	}
	if cl.Finished() != cl.Issued() {
		t.Fatalf("%d of %d operations finished", cl.Finished(), cl.Issued())
	}
	if err := cl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestReturnedWaveUnfoldsChildWave: a node folds its child's wave v into a
// wave of its own, and its parent returns that wave. The child's v goes back
// to waiting unfolded, and the child's folded-wave cursor goes back with it:
// a wave v+1 that rides on v is foldable only once v is folded again. With
// the cursor left at v, a v+1 that arrived after the node had returned v to
// the child as well (an update phase returns such waves) was folded and
// served, while the child had taken it back with v and fired its operations
// again (a churn storm, heap seed 335, found it).
func TestReturnedWaveUnfoldsChildWave(t *testing.T) {
	net := newMemNet(t)
	cl, err := NewMember(Config{Processes: 2, Seed: 7}, 0, []int32{0, 1}, net)
	if err != nil {
		t.Fatal(err)
	}
	net.tick()
	net.settle(nil)
	mid, _ := cl.Node(cl.Client(0))
	child, _ := cl.Node(mid.hood.SibR.ID)
	cl.Enqueue(child.self.ID)
	child.OnReady(net.ctxs[child.self.ID])
	if len(child.inFlight) != 1 || len(net.queue) != 1 {
		t.Fatalf("child has %d waves in flight and %d frames queued, want 1 and 1", len(child.inFlight), len(net.queue))
	}
	v := child.inFlight[0].Seq
	e := net.pop()
	mid.OnMessage(net.ctxs[mid.self.ID], e.from, e.payload)
	mid.OnReady(net.ctxs[mid.self.ID])
	if len(mid.inFlight) != 1 || mid.foldedWaves[child.self.ID] != v {
		t.Fatalf("%v has %d waves in flight, folded the child up to wave %d; want 1 and %d", mid.self, len(mid.inFlight), mid.foldedWaves[child.self.ID], v)
	}
	net.queue = nil
	mid.OnMessage(net.ctxs[mid.self.ID], mid.hood.SibL.ID, rejectBatch{WaveSeq: mid.inFlight[0].Seq})
	if got := mid.foldedWaves[child.self.ID]; got != v-1 || !mid.hasWaitingWave(FoldedWaveImage{From: child.self.ID, WaveSeq: v}) {
		t.Fatalf("after the return: child folded up to wave %d, its wave %d waiting %v; want %d and true", got, v, mid.hasWaitingWave(FoldedWaveImage{From: child.self.ID, WaveSeq: v}), v-1)
	}
	if mid.foldable(subBatch{From: child.self.ID, WaveSeq: v + 1, Prev: v}) {
		t.Fatalf("wave %d, riding on the unfolded wave %d, is foldable", v+1, v)
	}
	net.queue = nil
}

// TestStackNeverPipelines offers the same open-loop load to a stack and a
// queue cluster, on the simulator and on the in-memory net with readiness
// passes between deliveries. The queue pipelines; no stack node ever holds
// two waves, because §VI's completion wait holds a node with a wave in
// flight (stackDisc.gated).
func TestStackNeverPipelines(t *testing.T) {
	pipelined := func(t *testing.T, mode batch.Mode, member bool) Metrics {
		t.Helper()
		cfg := Config{Processes: 8, Seed: 3, Mode: mode}
		rng := xrand.New(3)
		if !member {
			cl := newCluster(t, cfg)
			enq := loadSim(cl, rng, 60, 6)
			drainAndCheck(t, cl, 50000)
			checkElements(t, cl, enq)
			return cl.Metrics()
		}
		net := newMemNet(t)
		pids := make([]int32, cfg.Processes)
		for i := range pids {
			pids[i] = int32(i)
		}
		cl, err := NewMember(cfg, 0, pids, net)
		if err != nil {
			t.Fatal(err)
		}
		enq := 0
		for r := 0; r < 300; r++ {
			c := cl.Client(rng.Intn(cfg.Processes))
			if rng.Bool(0.55) {
				cl.Enqueue(c)
				enq++
			} else {
				cl.Dequeue(c)
			}
			for i := rng.Intn(4); i > 0 && len(net.queue) > 0; i-- {
				e := net.pop()
				net.nodes[e.to].OnMessage(net.ctxs[e.to], e.from, e.payload)
				net.ready()
			}
			if r%20 == 0 {
				net.tick()
			}
			net.ready()
		}
		for i := 0; cl.Finished() < cl.Issued(); i++ {
			if i == 100 {
				t.Fatalf("%d of %d operations finished", cl.Finished(), cl.Issued())
			}
			net.tick()
			net.settle(nil)
		}
		if err := cl.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		checkElements(t, cl, enq)
		return cl.Metrics()
	}
	for _, member := range []bool{false, true} {
		if m := pipelined(t, batch.Queue, member); m.PipelinedFires == 0 || m.MaxWavesInFlight < 2 {
			t.Fatalf("member=%v: the queue did not pipeline under this load (%d pipelined fires, deepest %d); the test exercises nothing", member, m.PipelinedFires, m.MaxWavesInFlight)
		}
		if m := pipelined(t, batch.Stack, member); m.PipelinedFires != 0 || m.MaxWavesInFlight != 1 {
			t.Fatalf("member=%v: a stack node pipelined: %d pipelined fires, deepest %d waves in flight", member, m.PipelinedFires, m.MaxWavesInFlight)
		}
	}
}
