package core

import (
	"testing"

	"skueue/internal/batch"
	"skueue/internal/seqcheck"
	"skueue/internal/xrand"
)

func stackCluster(t *testing.T, procs int, seed int64) *Cluster {
	t.Helper()
	return newCluster(t, Config{Processes: procs, Seed: seed, Mode: batch.Stack})
}

func TestStackSingleClientLIFO(t *testing.T) {
	// Pushes and pops issued in separate waves so nothing combines
	// locally: LIFO order must come from the protocol.
	cl := stackCluster(t, 2, 1)
	c := cl.Client(0)
	for i := 0; i < 5; i++ {
		cl.Enqueue(c)
	}
	drainAndCheck(t, cl, 5000)
	for i := 0; i < 5; i++ {
		cl.Dequeue(cl.Client(1))
	}
	drainAndCheck(t, cl, 5000)
	bySeq := map[int64]int64{}
	for _, op := range cl.History().Ops {
		if op.Kind == seqcheck.Pop && !op.Bottom {
			bySeq[op.LocalSeq] = op.Elem.Seq
		}
	}
	if len(bySeq) != 5 {
		t.Fatalf("got %d pops, want 5", len(bySeq))
	}
	// The consumer's pops in issue order must return 4,3,2,1,0.
	want := int64(4)
	for seq := int64(0); seq < 5; seq++ {
		if bySeq[seq] != want {
			t.Fatalf("pop %d returned element %d, want %d", seq, bySeq[seq], want)
		}
		want--
	}
}

func TestStackLocalCombining(t *testing.T) {
	// Pushes immediately followed by pops on the same node combine without
	// any protocol traffic (§VI).
	cl := stackCluster(t, 3, 2)
	c := cl.Client(0)
	cl.Enqueue(c)
	cl.Enqueue(c)
	cl.Dequeue(c)
	cl.Dequeue(c)
	if cl.Finished() != 4 {
		t.Fatalf("combining should complete all 4 ops instantly, finished %d", cl.Finished())
	}
	if cl.Metrics().CombinedOps != 4 {
		t.Fatalf("combined ops = %d, want 4", cl.Metrics().CombinedOps)
	}
	if err := cl.CheckConsistency(); err != nil {
		t.Fatalf("consistency: %v", err)
	}
	// The pops returned the pushes in LIFO order.
	var pops []int64
	for _, op := range cl.History().Ops {
		if op.Kind == seqcheck.Pop {
			pops = append(pops, op.Elem.Seq)
		}
	}
	if len(pops) != 2 || pops[0] != 1 || pops[1] != 0 {
		t.Fatalf("combined pops wrong: %v", pops)
	}
}

func TestStackPopEmptyBottom(t *testing.T) {
	cl := stackCluster(t, 2, 3)
	cl.Dequeue(cl.Client(0))
	cl.Dequeue(cl.Client(1))
	drainAndCheck(t, cl, 5000)
	for _, op := range cl.History().Ops {
		if !op.Bottom {
			t.Fatalf("pop on empty stack must return ⊥: %+v", op)
		}
	}
}

func TestStackPositionReuseAcrossWaves(t *testing.T) {
	// The §VI counterexample shape: (push, pop, push, pop) issued so that
	// the same position is reused with different tickets. With the stage-4
	// wait the result is consistent.
	cl := stackCluster(t, 2, 4)
	prod := cl.Client(0)
	cons := cl.Client(1)
	for round := 0; round < 4; round++ {
		cl.Enqueue(prod)
		drainAndCheck(t, cl, 5000)
		cl.Dequeue(cons)
		drainAndCheck(t, cl, 5000)
	}
	st := seqcheck.Summarize(cl.History())
	if st.Bottoms != 0 {
		t.Fatalf("all pops should hit: %+v", st)
	}
}

func TestStackConsistencySyncSweep(t *testing.T) {
	for seed := int64(30); seed < 38; seed++ {
		cl := newCluster(t, Config{Processes: 5, Seed: seed, Mode: batch.Stack, ShuffleTimeouts: true})
		rng := xrand.New(seed * 3)
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
		drainAndCheck(t, cl, 30000)
	}
}

func TestStackConsistencyAsync(t *testing.T) {
	for seed := int64(40); seed < 50; seed++ {
		cl := newCluster(t, Config{
			Processes: 4, Seed: seed, Mode: batch.Stack,
			Async: true, MaxDelay: 12, TimeoutEvery: 5,
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
		drainAndCheck(t, cl, 200000)
	}
}

func TestStackWithoutCombiningIsUnsound(t *testing.T) {
	// Ablation finding: local combining is not merely the §VI throughput
	// optimization — the canonical pop^a push^b batch shape it produces is
	// load-bearing for stack correctness. Without it, a node's batch can
	// interleave push and pop runs, a wave can reuse a freed position for
	// a new push, and two pops of the SAME wave can race for the same
	// position in the DHT: one steals the other's element and the loser
	// parks forever (the stage-4 wait only separates waves, so it cannot
	// help). This test demonstrates the failure mode; DESIGN.md §7
	// documents it. The failure needs a schedule that interleaves the
	// runs, so the seeds are many: a shorter route makes it rarer (a few
	// seeds in 200).
	const first, seeds = 50, 200
	broken := 0
	for seed := int64(first); seed < first+seeds; seed++ {
		cl := newCluster(t, Config{
			Processes: 4, Seed: seed, Mode: batch.Stack,
			DisableLocalCombining: true, ShuffleTimeouts: true,
		})
		rng := xrand.New(seed)
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
		if cl.Metrics().CombinedOps != 0 {
			t.Fatalf("combining disabled but ops combined")
		}
		if !cl.Drain(30000) || cl.CheckConsistency() != nil {
			broken++
		}
	}
	if broken == 0 {
		t.Fatalf("expected the uncombined stack to misbehave on some seeds")
	}
	t.Logf("uncombined stack misbehaved on %d/%d seeds (stuck pops or inconsistency)", broken, seeds)
}

func TestStackBatchConstantSize(t *testing.T) {
	// Theorem 20: with local combining, stack batches have constant size
	// (at most 3 runs) regardless of the request rate.
	cl := stackCluster(t, 4, 60)
	rng := xrand.New(1)
	clients := cl.ActiveClients()
	for round := 0; round < 150; round++ {
		for _, c := range clients {
			if rng.Bool(0.5) {
				cl.Enqueue(c)
			} else {
				cl.Dequeue(c)
			}
		}
		cl.Step()
	}
	drainAndCheck(t, cl, 30000)
	if m := cl.Metrics().MaxBatchRuns; m > 3 {
		t.Fatalf("stack batch grew to %d runs; Theorem 20 promises <= 3", m)
	}
}

func TestStackTicketsMonotone(t *testing.T) {
	cl := stackCluster(t, 2, 61)
	c := cl.Client(0)
	for i := 0; i < 3; i++ {
		cl.Enqueue(c)
		drainAndCheck(t, cl, 5000)
		cl.Dequeue(cl.Client(1))
		drainAndCheck(t, cl, 5000)
	}
	a := cl.AnchorNode()
	st := a.AnchorState()
	if st.Ticket != 3 {
		t.Fatalf("ticket counter %d, want 3 (one per push)", st.Ticket)
	}
	if st.Last != 0 {
		t.Fatalf("stack should be empty, last=%d", st.Last)
	}
}

func TestStackNoWaitViolationReachable(t *testing.T) {
	// E9: without the stage-4 wait, the paper's counterexample (§VI) can
	// produce an inconsistent execution under adversarial asynchrony. We
	// sweep seeds and expect at least one violation — and, crucially, the
	// checker must be the thing that catches it.
	violations := 0
	for seed := int64(0); seed < 120; seed++ {
		cl, err := New(Config{
			Processes: 2, Seed: seed, Mode: batch.Stack,
			DisableStage4Wait: true, DisableLocalCombining: true,
			Async: true, MaxDelay: 40, TimeoutEvery: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(seed)
		clients := cl.ActiveClients()
		// Alternating push/pop traffic reusing the same positions.
		for burst := 0; burst < 12; burst++ {
			c := clients[rng.Intn(len(clients))]
			cl.Enqueue(c)
			cl.Run(int64(1 + rng.Intn(6)))
			c = clients[rng.Intn(len(clients))]
			cl.Dequeue(c)
			cl.Run(int64(1 + rng.Intn(6)))
		}
		if !cl.Drain(200000) {
			// Without the wait, a pop can park forever on a bound that no
			// later put satisfies — that is itself the §VI failure mode.
			violations++
			continue
		}
		if err := cl.CheckConsistency(); err != nil {
			violations++
		}
	}
	if violations == 0 {
		t.Fatalf("expected at least one consistency violation without the stage-4 wait across 120 seeds")
	}
	t.Logf("stage-4-wait ablation: %d/120 seeds violated sequential consistency", violations)
}
