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
// Any later move is unintended until a comment here says otherwise.
func TestSimulatorHistoryGolden(t *testing.T) {
	golden := map[string]string{
		"queue/seed=1/sync":  "dea4b278fde85e6a",
		"queue/seed=1/async": "3bfa3baeffcaaa0b",
		"queue/seed=2/sync":  "5c922948e3cca701",
		"queue/seed=2/async": "acd864256c6a235e",
		"queue/seed=3/sync":  "bb042173bd6206e5",
		"queue/seed=3/async": "91f4bdfd97bca6d1",
		"queue/seed=4/sync":  "976cfa478bbe3918",
		"queue/seed=4/async": "a6568f8e2da6933f",
		"stack/seed=1/sync":  "a2df5775152c18a7",
		"stack/seed=1/async": "49f1eba218996fbd",
		"stack/seed=2/sync":  "37ae12b279a25620",
		"stack/seed=2/async": "cceb7faa9cd8f8a7",
		"stack/seed=3/sync":  "9692f45fa41b0058",
		"stack/seed=3/async": "84b664788611a84e",
		"stack/seed=4/sync":  "2141c4d5d6d69240",
		"stack/seed=4/async": "989df5336805f804",
		"heap/seed=1/sync":   "796c9d93e96cc4bb",
		"heap/seed=1/async":  "faca4a13af2dc6a6",
		"heap/seed=2/sync":   "a6d779596717a9ed",
		"heap/seed=2/async":  "4f40e2bceb99a341",
		"heap/seed=3/sync":   "3de1ae686a1a9713",
		"heap/seed=3/async":  "381374ca2f519ad9",
		"heap/seed=4/sync":   "f147bf29c3f4eb35",
		"heap/seed=4/async":  "a6c9e9b45fcda438",
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
