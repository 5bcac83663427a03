package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"skueue/internal/batch"
	"skueue/internal/ldb"
	"skueue/internal/seqcheck"
	"skueue/internal/xrand"
)

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cl, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return cl
}

func drainAndCheck(t *testing.T, cl *Cluster, maxTime int64) {
	t.Helper()
	if !cl.Drain(maxTime) {
		t.Fatalf("did not drain: finished %d of %d within %d time units",
			cl.Finished(), cl.Issued(), maxTime)
	}
	if err := cl.CheckConsistency(); err != nil {
		t.Fatalf("consistency: %v", err)
	}
	if cl.ChurnQuiescent() {
		if err := treeAgreement(cl); err != nil {
			t.Fatalf("tree: %v", err)
		}
	}
}

// treeAgreement checks, from the global oracle, that every live ring node's
// views of the nodes two hops away match the ring, and that every tree edge
// is seen from both of its ends: a node's children name it as their parent,
// and its parent counts it as a child. A left node's parent depends on its
// neighbours' processes, and whether it is a child on a view two hops away,
// so a view that lags leaves a parent waiting for a child that reports
// elsewhere, or bouncing one that reports to it. Call it once churn has
// settled.
func treeAgreement(cl *Cluster) error {
	ring := cl.LiveRing()
	size := ring.Len()
	for i := 0; i < size; i++ {
		n := cl.nodes[ring.At(i).ID]
		if pp, ss := ring.Pred((i-1+size)%size), ring.Succ((i+1)%size); n.predView.Far.Point != pp.Point || n.succView.Far.Point != ss.Point {
			return fmt.Errorf("%v sees %v and %v two hops away, the ring has %v and %v", n.self, n.predView.Far, n.succView.Far, pp, ss)
		}
		if v := [...]bool{n.partial(), n.predView.Partial, n.succView.Partial}; slices.Contains(v[:], true) {
			return fmt.Errorf("%v sees a partial node once churn settled: %v", n.self, v)
		}
		for k, sib := range [...]ldb.Ref{n.sibL, n.sibM} {
			j := ring.IndexOf(sib.Point)
			if e := n.sibViews[k].Edges; ldb.Kind(k) != n.self.Kind && (j < 0 || e.Pred.Point != ring.Pred(j).Point || e.Succ.Point != ring.Succ(j).Point || e.PredPartial || e.SuccPartial) {
				return fmt.Errorf("%v sees its sibling %v between %v and %v, the ring has it at %d", n.self, sib, e.Pred, e.Succ, j)
			}
		}
		for _, c := range n.children() {
			cn, ok := cl.nodes[c.ID]
			if !ok {
				return fmt.Errorf("%v counts %v as a child, which is not live", n.self, c)
			}
			if p, ok := cn.nb().Parent(); !ok || p.ID != n.self.ID {
				return fmt.Errorf("%v counts %v as a child, whose parent is %v", n.self, c, p)
			}
		}
		p, ok := n.nb().Parent()
		if q, qok := n.parent(); q.ID != p.ID || qok != ok {
			return fmt.Errorf("%v reports to %v, its neighbourhood says %v: what it told its neighbours is stale", n.self, q, p)
		}
		if ok {
			if pn, live := cl.nodes[p.ID]; !live || !pn.isCurrentChild(n.self.ID) {
				return fmt.Errorf("%v reports to %v, which does not count it as a child", n.self, p)
			}
		}
	}
	return nil
}

func TestSingleProcessEnqueueDequeue(t *testing.T) {
	cl := newCluster(t, Config{Processes: 1, Seed: 1})
	client := cl.Client(0)
	cl.Enqueue(client)
	cl.Enqueue(client)
	cl.Dequeue(client)
	cl.Dequeue(client)
	drainAndCheck(t, cl, 2000)
	h := cl.History()
	if h.Len() != 4 {
		t.Fatalf("expected 4 completions, got %d", h.Len())
	}
	// FIFO: the two dequeues return the elements in insertion order — in
	// the client's issue order, that is (LocalSeq 2 and 3). History().Ops is
	// completion order, and the two GETs take routes of different length.
	deqElems := map[int64]int64{}
	for _, op := range h.Ops {
		if op.Kind == seqcheck.Dequeue {
			if op.Bottom {
				t.Fatalf("unexpected ⊥: %+v", op)
			}
			deqElems[op.LocalSeq] = op.Elem.Seq
		}
	}
	if len(deqElems) != 2 || deqElems[2] != 0 || deqElems[3] != 1 {
		t.Fatalf("dequeues out of order (LocalSeq → element): %v", deqElems)
	}
}

func TestDequeueEmptyReturnsBottom(t *testing.T) {
	cl := newCluster(t, Config{Processes: 3, Seed: 2})
	cl.Dequeue(cl.Client(0))
	cl.Dequeue(cl.Client(1))
	drainAndCheck(t, cl, 2000)
	for _, op := range cl.History().Ops {
		if !op.Bottom {
			t.Fatalf("dequeue on empty system must return ⊥: %+v", op)
		}
	}
}

func TestInterleavedProducersConsumers(t *testing.T) {
	cl := newCluster(t, Config{Processes: 8, Seed: 3, ShuffleTimeouts: true})
	rng := xrand.New(99)
	enq, deq := 0, 0
	for round := 0; round < 120; round++ {
		for i := 0; i < 3; i++ {
			p := rng.Intn(8)
			if rng.Bool(0.6) {
				cl.Enqueue(cl.Client(p))
				enq++
			} else {
				cl.Dequeue(cl.Client(p))
				deq++
			}
		}
		cl.Step()
	}
	drainAndCheck(t, cl, 20000)
	if got := int(cl.Issued()); got != enq+deq {
		t.Fatalf("issued %d, expected %d", got, enq+deq)
	}
	st := seqcheck.Summarize(cl.History())
	if st.Total != enq+deq {
		t.Fatalf("history has %d ops, expected %d", st.Total, enq+deq)
	}
	// Element conservation: everything enqueued is either dequeued or
	// still stored.
	returned := st.Dequeues - st.Bottoms
	if returned+cl.TotalStored() != enq {
		t.Fatalf("conservation broken: %d returned + %d stored != %d enqueued",
			returned, cl.TotalStored(), enq)
	}
}

func TestConsistencyAcrossSeedsSync(t *testing.T) {
	for seed := int64(10); seed < 18; seed++ {
		cl := newCluster(t, Config{Processes: 5, Seed: seed, ShuffleTimeouts: true})
		rng := xrand.New(seed * 7)
		clients := cl.ActiveClients()
		for round := 0; round < 60; round++ {
			for i := 0; i < 2; i++ {
				c := clients[rng.Intn(len(clients))]
				if rng.Bool(0.5) {
					cl.Enqueue(c)
				} else {
					cl.Dequeue(c)
				}
			}
			cl.Step()
		}
		drainAndCheck(t, cl, 20000)
	}
}

func TestConsistencyAsync(t *testing.T) {
	// The asynchronous model with non-FIFO delivery is where sequential
	// consistency is actually at risk; sweep several seeds.
	for seed := int64(20); seed < 30; seed++ {
		cl := newCluster(t, Config{
			Processes: 4, Seed: seed, Async: true, MaxDelay: 12, TimeoutEvery: 5,
		})
		rng := xrand.New(seed)
		clients := cl.ActiveClients()
		for burst := 0; burst < 30; burst++ {
			c := clients[rng.Intn(len(clients))]
			if rng.Bool(0.5) {
				cl.Enqueue(c)
			} else {
				cl.Dequeue(c)
			}
			cl.Run(int64(1 + rng.Intn(20)))
		}
		drainAndCheck(t, cl, 100000)
	}
}

func TestAnchorWindowMatchesContents(t *testing.T) {
	cl := newCluster(t, Config{Processes: 4, Seed: 5})
	for i := 0; i < 10; i++ {
		cl.Enqueue(cl.Client(i % 4))
	}
	drainAndCheck(t, cl, 5000)
	a := cl.AnchorNode()
	if a == nil {
		t.Fatalf("no anchor")
	}
	if size := a.AnchorState().Size(); size != 10 {
		t.Fatalf("anchor window size %d, want 10", size)
	}
	if cl.TotalStored() != 10 {
		t.Fatalf("stored %d, want 10", cl.TotalStored())
	}
	for i := 0; i < 10; i++ {
		cl.Dequeue(cl.Client(i % 4))
	}
	drainAndCheck(t, cl, 5000)
	a = cl.AnchorNode()
	if size := a.AnchorState().Size(); size != 0 {
		t.Fatalf("anchor window size %d after draining, want 0", size)
	}
	if cl.TotalStored() != 0 {
		t.Fatalf("stored %d after draining, want 0", cl.TotalStored())
	}
}

func TestPerClientFIFOOrder(t *testing.T) {
	// One producer, one consumer on different processes: strict FIFO of
	// the producer's elements.
	cl := newCluster(t, Config{Processes: 2, Seed: 6})
	prod, cons := cl.Client(0), cl.Client(1)
	const k = 20
	for i := 0; i < k; i++ {
		cl.Enqueue(prod)
	}
	drainAndCheck(t, cl, 5000)
	for i := 0; i < k; i++ {
		cl.Dequeue(cons)
	}
	drainAndCheck(t, cl, 5000)
	// Collect dequeues in the consumer's issue order (completions arrive
	// in reply order, which races; the issue order is what FIFO promises).
	bySeq := map[int64]int64{}
	for _, op := range cl.History().Ops {
		if op.Kind == seqcheck.Dequeue && !op.Bottom {
			bySeq[op.LocalSeq] = op.Elem.Seq
		}
	}
	if len(bySeq) != k {
		t.Fatalf("got %d dequeues, want %d", len(bySeq), k)
	}
	i := 0
	for seq := int64(0); i < k && seq <= 1000; seq++ {
		if elem, ok := bySeq[seq]; ok {
			if elem != int64(i) {
				t.Fatalf("dequeue issue-index %d returned element %d", i, elem)
			}
			i++
		}
	}
	if i != k {
		t.Fatalf("only matched %d of %d dequeues", i, k)
	}
}

func TestValuesAreUniqueAndDense(t *testing.T) {
	cl := newCluster(t, Config{Processes: 3, Seed: 7})
	for i := 0; i < 30; i++ {
		if i%3 == 0 {
			cl.Dequeue(cl.Client(i % 3))
		} else {
			cl.Enqueue(cl.Client(i % 3))
		}
	}
	drainAndCheck(t, cl, 5000)
	seen := map[int64]bool{}
	max := int64(0)
	for _, op := range cl.History().Ops {
		if op.Value == seqcheck.NoValue {
			t.Fatalf("queue op without value: %+v", op)
		}
		if seen[op.Value] {
			t.Fatalf("duplicate value %d", op.Value)
		}
		seen[op.Value] = true
		if op.Value > max {
			max = op.Value
		}
	}
	if int(max) != len(seen) {
		t.Fatalf("values not dense: max %d over %d ops", max, len(seen))
	}
}

func TestBatchSizeStaysSmall(t *testing.T) {
	// Theorem 18: run length stays O(log n); with a single request type
	// alternation per client per round it stays tiny.
	cl := newCluster(t, Config{Processes: 6, Seed: 8})
	rng := xrand.New(1)
	clients := cl.ActiveClients()
	for round := 0; round < 200; round++ {
		c := clients[rng.Intn(len(clients))]
		if rng.Bool(0.5) {
			cl.Enqueue(c)
		} else {
			cl.Dequeue(c)
		}
		cl.Step()
	}
	drainAndCheck(t, cl, 20000)
	if m := cl.Metrics().MaxBatchRuns; m > 64 {
		t.Fatalf("max batch runs %d, expected small", m)
	}
}

func TestEngineAccountingClean(t *testing.T) {
	cl := newCluster(t, Config{Processes: 4, Seed: 9})
	for i := 0; i < 12; i++ {
		cl.Enqueue(cl.Client(i % 4))
		cl.Dequeue(cl.Client((i + 1) % 4))
	}
	drainAndCheck(t, cl, 5000)
	// Let in-flight serves settle, then verify no messages are stuck.
	cl.Run(200)
	if inflight := cl.Engine().InFlight(); inflight > 100 {
		t.Fatalf("suspiciously many in-flight messages: %d", inflight)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() ([]seqcheck.Completion, Metrics) {
		cl := newCluster(t, Config{Processes: 4, Seed: 42, ShuffleTimeouts: true})
		rng := xrand.New(7)
		clients := cl.ActiveClients()
		for round := 0; round < 50; round++ {
			c := clients[rng.Intn(len(clients))]
			if rng.Bool(0.5) {
				cl.Enqueue(c)
			} else {
				cl.Dequeue(c)
			}
			cl.Step()
		}
		cl.Drain(10000)
		return cl.History().Ops, cl.Metrics()
	}
	a, am := run()
	b, bm := run()
	if len(a) != len(b) {
		t.Fatalf("history lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("divergence at op %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if am != bm {
		t.Fatalf("metrics differ: %+v vs %+v", am, bm)
	}
}

func TestDHTFairness(t *testing.T) {
	// Lemma 4 / Corollary 19: elements spread evenly over nodes.
	cl := newCluster(t, Config{Processes: 16, Seed: 11})
	for i := 0; i < 600; i++ {
		cl.Enqueue(cl.Client(i % 16))
	}
	drainAndCheck(t, cl, 20000)
	sizes := cl.StoreSizes()
	maxSize := 0
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	mean := 600.0 / float64(len(sizes))
	if float64(maxSize) > mean*8 {
		t.Fatalf("load imbalance: max %d vs mean %.1f", maxSize, mean)
	}
}

func TestModeQueueNoCombinedOps(t *testing.T) {
	cl := newCluster(t, Config{Processes: 2, Seed: 12, Mode: batch.Queue})
	c := cl.Client(0)
	cl.Enqueue(c)
	cl.Dequeue(c)
	drainAndCheck(t, cl, 2000)
	if cl.Metrics().CombinedOps != 0 {
		t.Fatalf("queue mode must not combine ops")
	}
}

// TestAnchorProcessMatchesBootstrap pins the pure derivation used by the
// chaos harness to spare the anchor-hosting member against the cluster
// the same (seed, procs) pair actually boots.
func TestAnchorProcessMatchesBootstrap(t *testing.T) {
	for _, procs := range []int{2, 3, 4, 8, 16} {
		for seed := int64(0); seed < 20; seed++ {
			cl := newCluster(t, Config{Processes: procs, Seed: seed})
			a := cl.AnchorNode()
			if a == nil {
				t.Fatalf("procs=%d seed=%d: no anchor after bootstrap", procs, seed)
			}
			got := AnchorProcess(seed, procs)
			if want := int32(a.self.ID) / 3; got != want {
				t.Fatalf("procs=%d seed=%d: AnchorProcess = %d, bootstrap anchor is on process %d", procs, seed, got, want)
			}
		}
	}
}
