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
// pipelining. Any later move is unintended until a comment here says
// otherwise.
func TestSimulatorHistoryGolden(t *testing.T) {
	golden := map[string]string{
		"queue/seed=1/sync":  "04c86f7f45dc0eaa",
		"queue/seed=1/async": "3bfa3baeffcaaa0b",
		"queue/seed=2/sync":  "11b4a639e7859020",
		"queue/seed=2/async": "acd864256c6a235e",
		"queue/seed=3/sync":  "6b4e41f001e9b23a",
		"queue/seed=3/async": "91f4bdfd97bca6d1",
		"queue/seed=4/sync":  "38c7d9a0d6b10f18",
		"queue/seed=4/async": "a6568f8e2da6933f",
		"stack/seed=1/sync":  "1d2260c32b4ae6b7",
		"stack/seed=1/async": "49f1eba218996fbd",
		"stack/seed=2/sync":  "b6f208c0714a073a",
		"stack/seed=2/async": "cceb7faa9cd8f8a7",
		"stack/seed=3/sync":  "c383e86f67de7742",
		"stack/seed=3/async": "84b664788611a84e",
		"stack/seed=4/sync":  "39f49406bfeb26f9",
		"stack/seed=4/async": "989df5336805f804",
		"heap/seed=1/sync":   "9e50378fa607584e",
		"heap/seed=1/async":  "faca4a13af2dc6a6",
		"heap/seed=2/sync":   "47a536c183ab9a94",
		"heap/seed=2/async":  "4f40e2bceb99a341",
		"heap/seed=3/sync":   "10ce49cd2aa25893",
		"heap/seed=3/async":  "381374ca2f519ad9",
		"heap/seed=4/sync":   "988002ffe2f30d27",
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
