package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"skueue/internal/xrand"
)

// goldenDigest runs one seeded simulation — queue traffic from every
// process, a join and a leave so the churn clock in OnTimeout is
// exercised — and returns an FNV-1a digest of its whole completion
// history, field by field in record order.
func goldenDigest(t *testing.T, seed int64, async bool) string {
	t.Helper()
	cl := newCluster(t, Config{Processes: 6, Seed: seed, Async: async})
	rng := xrand.New(seed*31 + 7)
	traffic := func(rounds int) {
		for round := 0; round < rounds; round++ {
			clients := cl.ActiveClients()
			for i := 0; i < 3; i++ {
				c := clients[rng.Intn(len(clients))]
				if rng.Bool(0.55) {
					cl.Enqueue(c)
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

// TestSimulatorHistoryGolden pins the simulator: the digests below were
// recorded at the commit before readiness-driven firing (PR 12, 5fd01bc),
// where OnTimeout was one function. The split into churn.tick + tryFire
// and the OnReady hook live behind the transport's scheduling, so a
// simulated run — which never calls OnReady — must reproduce every
// completion, stamp and wave count of that commit for the same seed.
//
// Seed 2 is the exception: at that commit its asynchronous run panicked in
// the join path (a directMsg outran the joiner's adoptMsg and bounced to a
// relay that was not set yet). Its sync digest is that commit's; its async
// digest was recorded at PR 14, which holds the message until adoption.
func TestSimulatorHistoryGolden(t *testing.T) {
	golden := map[string]string{
		"seed=1/sync":  "33557b4f385af1ae",
		"seed=1/async": "66ad386a89104638",
		"seed=2/sync":  "93932abe668c47e6",
		"seed=2/async": "4b314e2c2a4a5fcb",
		"seed=3/sync":  "c2857008aa2ddcc0",
		"seed=3/async": "27b7b24f526d7414",
		"seed=4/sync":  "255d1c8520b498b1",
		"seed=4/async": "ae05b8ecbf5e9850",
	}
	for _, seed := range []int64{1, 2, 3, 4} {
		for _, async := range []bool{false, true} {
			name := fmt.Sprintf("seed=%d/sync", seed)
			if async {
				name = fmt.Sprintf("seed=%d/async", seed)
			}
			if got := goldenDigest(t, seed, async); got != golden[name] {
				t.Errorf("%s: history digest %s, recorded %s — the simulator's schedule moved", name, got, golden[name])
			}
		}
	}
}
