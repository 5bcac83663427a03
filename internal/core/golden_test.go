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

// TestSimulatorHistoryGolden pins the simulator: a simulated run must
// reproduce every completion, stamp and wave count recorded below for the
// same seed, so a change that is meant to live behind the transport's
// scheduling (readiness-driven and work-driven firing, PRs 13 and 16, moved
// none of the digests) or in a host is caught the moment it moves a
// simulated schedule.
//
// The digests were re-recorded at PR 17, deliberately, for four reasons
// that each move every route or a churn handshake: the De Bruijn route
// itself (ldb.NewRoute/NextHop: fewer bits, middle search on both sides,
// delivery at the first responsible node — every PUT, GET and JOIN takes
// other hops), routeStep's fallback to the linear walk when a bit selects a
// sibling that is not integrated yet, dissolveQuery answering the node it
// names instead of the frame's sender, and a node holding its batch while
// its tree parent is a sibling that still joins (parentJoining; it used to
// fire and be bounced once per round trip). Any later move is unintended
// until a comment here says otherwise.
func TestSimulatorHistoryGolden(t *testing.T) {
	golden := map[string]string{
		"seed=1/sync":  "7538111769c22e07",
		"seed=1/async": "d963d22c2e33f718",
		"seed=2/sync":  "e65a965a474b564f",
		"seed=2/async": "55c3bcf0e872157a",
		"seed=3/sync":  "c2f937ccd4c14e21",
		"seed=3/async": "a4c1d0c332f6c77c",
		"seed=4/sync":  "d0819c765f435aea",
		"seed=4/async": "9b6dd490676f524d",
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
