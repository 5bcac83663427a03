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
// neighbours exchange their pairs after every change (a ring hello), so
// every schedule moves in both models, the stack's included.
//
// All 24 rows were re-recorded, deliberately, when a process began to report
// over the best of its left and middle nodes' ring edges
// (ldb.Neighborhood.UpEdge), the walk to a middle node began to look two
// hops ahead (ldb.NextHop), and a parent began to keep pace with a child
// that pipelines (Node.carriesOps): waves take other paths up, routes other
// paths to the DHT, siblings tell each other their ring edges (a sibling
// hello) and a site's TIMEOUT order follows the triad's root, so every
// schedule moves in both models.
//
// All 24 rows were re-recorded, deliberately, when a route began to hop to
// the nodes two hops away (ldb.NextHop: straight to an owner the node can
// see, over a node known not to be a middle node, two nodes a hop on the
// closing walk) and to price its bits for it (ldb.NewRoute), and when a
// triad's left node became the one that works its up edge out and hands it
// to the middle node only once confirmed (ldb.Neighborhood.ActingUp; a
// sibling hello now carries the edge and the confirmation): every PUT, GET
// and JOIN request takes a different path, and every churn handshake moves,
// so every schedule moves in both models.
//
// Six rows, the async runs of seeds 1 and 3, were re-recorded, deliberately,
// when a node's ring neighbours and siblings began to hear it through one
// hello per node instead of a ring hello and a sibling hello each
// (Node.ringChanged, Node.noteHello): a sibling that is also a ring
// neighbour now gets one message where it got two, which shifts every later
// random delay of those runs, and their churn handshakes take other turns. The synchronous rows
// do not move. Any later move is unintended until a comment here says
// otherwise.
func TestSimulatorHistoryGolden(t *testing.T) {
	golden := map[string]string{
		"queue/seed=1/sync":  "eb7d8d5bad89364d",
		"queue/seed=1/async": "889466148d0cee26",
		"queue/seed=2/sync":  "9b5822a5a9691ac0",
		"queue/seed=2/async": "711d4733e56a5119",
		"queue/seed=3/sync":  "67e9c3f91dad3822",
		"queue/seed=3/async": "fbff81002d764710",
		"queue/seed=4/sync":  "1a3e7129e9c25a33",
		"queue/seed=4/async": "bf224d178781debd",
		"stack/seed=1/sync":  "3a3daaffaccf3c58",
		"stack/seed=1/async": "a2a388a03cf3c985",
		"stack/seed=2/sync":  "0aa3bb22b2ce8158",
		"stack/seed=2/async": "4412d0a397b8239c",
		"stack/seed=3/sync":  "a619602b87922eb9",
		"stack/seed=3/async": "256b70870561da47",
		"stack/seed=4/sync":  "14b775aa5451b3b2",
		"stack/seed=4/async": "4a026526da442977",
		"heap/seed=1/sync":   "6bed61cb63148799",
		"heap/seed=1/async":  "71381d9ea6b58688",
		"heap/seed=2/sync":   "5b09adcbaa3f295a",
		"heap/seed=2/async":  "86412ffe81a3a0b3",
		"heap/seed=3/sync":   "5e7e7db42ff98fbc",
		"heap/seed=3/async":  "296ca4bc44580c39",
		"heap/seed=4/sync":   "aff71ba995d7563a",
		"heap/seed=4/async":  "3b6b74d1f8e5db2e",
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
