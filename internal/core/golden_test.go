package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"skueue/internal/batch"
	"skueue/internal/xrand"
)

// goldenDigest runs one seeded simulation in the given discipline —
// traffic from every process (heap enqueues spread over three levels), a
// join and a leave so the churn clock in OnTimeout is exercised — and
// returns an FNV-1a digest of its whole completion history, field by field
// in record order.
func goldenDigest(t *testing.T, mode batch.Mode, seed int64, async bool) string {
	t.Helper()
	cl := newCluster(t, Config{Processes: 6, Seed: seed, Async: async, Mode: mode, HeapLevels: 3})
	rng := xrand.New(seed*31 + 7)
	traffic := func(rounds int) {
		for round := 0; round < rounds; round++ {
			clients := cl.ActiveClients()
			for i := 0; i < 3; i++ {
				c := clients[rng.Intn(len(clients))]
				if rng.Bool(0.55) {
					pri := int32(0)
					if mode == batch.Heap {
						pri = int32(rng.Intn(cl.HeapLevels()))
					}
					cl.EnqueuePriBlob(c, pri, nil)
				} else {
					cl.Dequeue(c)
				}
			}
			cl.Step()
		}
	}
	traffic(20)
	cl.JoinProcess(0)
	traffic(40)
	settleChurn(t, cl, 50000)
	cl.LeaveProcess(2)
	traffic(30)
	settleChurn(t, cl, 50000)
	drainAndCheck(t, cl, 50000)
	h := fnv.New64a()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	for _, op := range cl.History().Ops {
		bottom := int64(0)
		if op.Bottom {
			bottom = 1
		}
		put(int64(op.Client), op.LocalSeq, int64(op.Kind), int64(op.Elem.Origin), op.Elem.Seq,
			op.Value, op.Born, op.Done, int64(op.ReqID), bottom)
	}
	m := cl.Metrics()
	put(int64(cl.History().Len()), m.WavesAssigned, cl.Engine().Now())
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSimulatorHistoryGolden pins the simulator: a simulated run must
// reproduce every completion, stamp and wave count recorded below for the
// same seed and discipline, so a change that is meant to live behind the
// transport's scheduling (readiness-driven and work-driven firing moved none
// of the digests) or in a host is caught the moment it moves a simulated
// schedule.
//
// The stack and heap rows were added, and the queue rows re-recorded,
// deliberately, when waves became pipelined: a queue or heap node fires its
// next wave while the last one is in flight, so every schedule of theirs
// moves, and so do the churn handshakes that change made race-free. The
// stack never pipelines — its §VI completion wait holds a node with a wave
// in flight — and its digests are the ones the same runs gave before
// pipelining.
//
// Every sync row was re-recorded, deliberately, when a process's three
// virtual nodes became one site of the synchronous engine: a message
// between siblings is delivered in the round it was sent, and a site runs
// TIMEOUT children first, so every synchronous schedule moves. The async
// rows did not move — the asynchronous model keeps its delay on every edge.
//
// All 24 rows, sync and async, were re-recorded, deliberately, when the De
// Bruijn route was re-made at what a round costs (ldb.NewRoute / NextHop:
// the start jump to the own middle node, the bit count chosen per route,
// the walk steered towards the next bit's ideal point): every PUT, GET and
// JOIN request takes a different path in both models, so every schedule
// moves. In the same change six rows moved once more, deliberately, when a
// node handed an epoch outside the flagged wave stopped waiting for a wave
// of its own that its parent had already folded (churnState.foldedAtPold):
// its acknowledgment, and the phase's end, come earlier.
//
// All 24 rows were re-recorded, deliberately, when the aggregation tree was
// made shallower (ldb.Neighborhood.Parent: a left node reports to whichever
// ring neighbour's process sits further left) and every node began to fire
// on work (Node.tryFire): every wave takes a different path up, a node with
// operations no longer waits for its other children, and the ring
// neighbours exchange their pairs after every change (ringHello), so every
// schedule moves in both models, the stack's included.
//
// All 24 rows were re-recorded, deliberately, when a process began to report
// over the best of its left and middle nodes' ring edges
// (ldb.Neighborhood.UpEdge), the walk to a middle node began to look two
// hops ahead (ldb.NextHop), and a parent began to keep pace with a child
// that pipelines (Node.carriesOps): waves take other paths up, routes other
// paths to the DHT, siblings tell each other their ring edges (sibHello) and
// a site's TIMEOUT order follows the triad's root, so every schedule moves in
// both models. Any later move is unintended until a comment here says
// otherwise.
func TestSimulatorHistoryGolden(t *testing.T) {
	golden := map[string]string{
		"queue/seed=1/sync":  "a53cc1bec4796ee2",
		"queue/seed=1/async": "1af6879a84bb982a",
		"queue/seed=2/sync":  "64cc697da4b713ce",
		"queue/seed=2/async": "130462bb455c37cb",
		"queue/seed=3/sync":  "da240e0a6d5ae046",
		"queue/seed=3/async": "c9768e37d5e2d517",
		"queue/seed=4/sync":  "6c704c1b964473f8",
		"queue/seed=4/async": "827130f2b0913247",
		"stack/seed=1/sync":  "aae295ebfa50c8f9",
		"stack/seed=1/async": "bcd0de69745eabb1",
		"stack/seed=2/sync":  "4b6a244c60b02254",
		"stack/seed=2/async": "aa386feb365c31d2",
		"stack/seed=3/sync":  "86736987187b7932",
		"stack/seed=3/async": "3c8da00650659b3b",
		"stack/seed=4/sync":  "a51c08407e05eae6",
		"stack/seed=4/async": "e978d414a0be0bd5",
		"heap/seed=1/sync":   "4eceadfb74d155d1",
		"heap/seed=1/async":  "052855d556b1579e",
		"heap/seed=2/sync":   "ecdcdaeda45a345a",
		"heap/seed=2/async":  "9ae846d173ce7879",
		"heap/seed=3/sync":   "265a7716293a279d",
		"heap/seed=3/async":  "bb732a2353518bb5",
		"heap/seed=4/sync":   "b151f6174b12ec34",
		"heap/seed=4/async":  "4377f5ee8766e40a",
	}
	for _, tc := range threeDisciplines {
		for _, seed := range []int64{1, 2, 3, 4} {
			for _, async := range []bool{false, true} {
				name := fmt.Sprintf("%s/seed=%d/sync", tc.name, seed)
				if async {
					name = fmt.Sprintf("%s/seed=%d/async", tc.name, seed)
				}
				if got := goldenDigest(t, tc.cfg.Mode, seed, async); got != golden[name] {
					t.Errorf("%s: history digest %s, recorded %s — the simulator's schedule moved", name, got, golden[name])
				}
			}
		}
	}
}
