package server

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"skueue"
	"skueue/internal/core"
	"skueue/internal/transport"
)

// coarseTick is the TIMEOUT cadence of the readiness tests: three orders
// of magnitude above a loopback hop, so an operation that still waits for
// ticks on its way up and down the tree cannot pass a latency assertion
// by accident, and one that does not is nowhere near the limit.
const coarseTick = 50 * time.Millisecond

// clockAndWaves reads a member's tick count and the waves its anchor (if
// it hosts one) has assigned, on the runner.
func clockAndWaves(s *Server) (now, waves int64) {
	s.peer.DoSync(func() { now, waves = s.peer.Now(), s.cl.Metrics().WavesAssigned })
	return now, waves
}

func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

func medianInt(vs []int64) int64 {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs[len(vs)/2]
}

// waveCounts sums what the members' nodes have done so far: waves assigned
// (one member hosts the anchor), batches fired, declines sent, idle children
// counted as reported.
func waveCounts(srvs []*Server) (m core.Metrics) {
	for _, s := range srvs {
		s.peer.DoSync(func() {
			c := s.cl.Metrics()
			m.WavesAssigned += c.WavesAssigned
			m.BatchesSent += c.BatchesSent
			m.Declines += c.Declines
			m.EmptyWaves += c.EmptyWaves
		})
	}
	return m
}

// TestReadinessLatencyIsHopsNotTicks: 40 blocking enqueue/dequeue pairs
// against a 3-member cluster that ticks every 50 ms. Paced by the clock an
// operation costs a tick per tree level each way plus the DHT round trip;
// paced by readiness alone it still waited for the tick of some idle leaf.
// Driven by work it waits for nobody: it costs hops, a small fraction of one
// tick, and is stamped within the tick it was born in. The member's clock
// must have counted wall-clock ticks throughout, however many waves fired.
func TestReadinessLatencyIsHopsNotTicks(t *testing.T) {
	srvs, _ := loopbackCluster(t, 3, "queue", coarseTick, "", 0)
	c, err := skueue.Open(skueue.WithRemote(srvs[1].Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	time.Sleep(2 * coarseTick) // the first wave is the tick's

	start := time.Now()
	now0, _ := clockAndWaves(srvs[1])
	var wall []time.Duration
	var rounds []int64
	const pairs = 40
	for i := 0; i < pairs; i++ {
		want := fmt.Sprintf("v-%d", i)
		t0 := time.Now()
		f, err := c.EnqueueAsync(skueue.AnyProcess, want)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Wait(ctx); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		wall = append(wall, time.Since(t0))
		t0 = time.Now()
		if f, err = c.DequeueAsync(skueue.AnyProcess); err != nil {
			t.Fatal(err)
		}
		if err := f.Wait(ctx); err != nil {
			t.Fatalf("dequeue %d: %v", i, err)
		}
		wall = append(wall, time.Since(t0))
		rounds = append(rounds, f.Rounds())
		if f.Empty() || f.Value() != want {
			t.Fatalf("dequeue %d: got (%v, empty=%v), want %q", i, f.Value(), f.Empty(), want)
		}
	}
	now1, _ := clockAndWaves(srvs[1])
	elapsed := time.Since(start)

	if m := medianDuration(wall); m >= coarseTick/4 {
		t.Errorf("median latency %v at a %v tick: operations wait for the clock", m, coarseTick)
	} else {
		t.Logf("median latency %v at a %v tick", m, coarseTick)
	}
	if m := medianInt(rounds); m != 0 {
		t.Errorf("median dequeue took %d ticks of the member's clock, want 0", m)
	}
	if got, most := now1-now0, int64(elapsed/coarseTick)+1; got > most {
		t.Errorf("Now() advanced %d in %v, at most %d ticks fit: something other than the ticker moves the clock", got, elapsed, most)
	}
	if err := c.Check(); err != nil {
		t.Fatalf("Definition 1: %v", err)
	}
}

// TestIdleClusterStandsIdle: after its first wave a cluster with nothing to
// do exchanges nothing — over 40 ticks no wave is assigned, no batch fired
// and no decline sent, while every member's clock goes on counting ticks.
// One operation into that silence is one wave: fired once by each node on
// its path and by nobody else, and answered by one decline from each of
// them below the anchor. A closed loop of operations repeats exactly that,
// so no node fires twice between two serves.
func TestIdleClusterStandsIdle(t *testing.T) {
	srvs, _ := loopbackCluster(t, 3, "queue", coarseTick, "", 0)
	time.Sleep(5 * coarseTick) // the first wave, and the declines answering it

	start := time.Now()
	before := waveCounts(srvs)
	var now0 []int64
	for _, s := range srvs {
		now, _ := clockAndWaves(s)
		now0 = append(now0, now)
	}
	if before.WavesAssigned != 1 || before.BatchesSent != 9 || before.Declines != 8 {
		t.Fatalf("after the first ticks: %d waves, %d batches, %d declines; want 1 wave fired by all 9 nodes and declined by the 8 below the anchor",
			before.WavesAssigned, before.BatchesSent, before.Declines)
	}
	time.Sleep(40 * coarseTick)
	if after := waveCounts(srvs); after != before {
		t.Fatalf("40 idle ticks moved something: %+v -> %+v", before, after)
	}
	elapsed := time.Since(start)
	for i, s := range srvs {
		now, _ := clockAndWaves(s)
		if d, most := now-now0[i], int64(elapsed/coarseTick)+1; d < 35 || d > most {
			t.Errorf("member %d: Now() advanced %d in %v, want one per tick (35..%d)", i, d, elapsed, most)
		}
	}

	c, err := skueue.Open(skueue.WithRemote(srvs[1].Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := c.Enqueue(ctx, "one"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(coarseTick / 2) // the declines travel after the completion
	one := waveCounts(srvs)
	path := one.BatchesSent - before.BatchesSent
	if one.WavesAssigned-before.WavesAssigned != 1 || path < 2 || one.Declines-before.Declines != path-1 {
		t.Fatalf("one operation: %d waves, %d batches, %d declines; want one wave, one batch per node on the path and one decline per node below the anchor",
			one.WavesAssigned-before.WavesAssigned, path, one.Declines-before.Declines)
	}
	if one.EmptyWaves == before.EmptyWaves {
		t.Fatal("no idle child was counted as reported")
	}

	const ops = 40
	for i := 0; i < ops; i++ {
		if i%2 == 0 {
			_, _, err = c.Dequeue(ctx)
		} else {
			err = c.Enqueue(ctx, fmt.Sprintf("v-%d", i))
		}
		if err != nil {
			t.Fatalf("operation %d: %v", i, err)
		}
	}
	time.Sleep(coarseTick / 2)
	loop := waveCounts(srvs)
	if w, b := loop.WavesAssigned-one.WavesAssigned, loop.BatchesSent-one.BatchesSent; w != ops || b != ops*path {
		t.Fatalf("%d operations in a closed loop: %d waves and %d batches, want %d and %d: a node fired without work or twice between two serves",
			ops, w, b, ops, ops*path)
	}
	if d := loop.Declines - one.Declines; d > ops*(path-1) {
		t.Fatalf("%d declines after %d waves over a path of %d nodes", d, ops, path)
	}
	if err := c.Check(); err != nil {
		t.Fatalf("Definition 1: %v", err)
	}
}

// firedWave is the ground truth of one wave fire: the operations of the
// node's own that rode it, read from the node itself at fire time.
type firedWave struct {
	node transport.NodeID
	wave int64
	own  []uint64
}

// TestJournalOrderUnderReadiness guards the hazard readiness firing must
// not open. submit reads the injection node's fire counter, stages the op
// record carrying it and injects, in one runner task; a restart re-submits
// the operation once the node has re-fired that many waves. Were a wave to
// fire between the read and the inject — the moment an input arrived — the
// operation would ride a later wave than its record names, and the replay
// would put it into an earlier one than the shape the peers hold.
// Readiness is evaluated only between runner tasks, so it cannot.
func TestJournalOrderUnderReadiness(t *testing.T) {
	t.Run("FileOrder", func(t *testing.T) {
		// No periodic snapshot: nothing compacts the journal under the test.
		srvs, dirs := loopbackCluster(t, 3, "queue", coarseTick, t.TempDir(), time.Hour)
		owner := srvs[1]
		// The test listens in front of the member's own fire log.
		var fires []firedWave
		owner.peer.DoSync(func() {
			owner.cl.SetOnFire(func(node transport.NodeID, wave int64, folded []core.FoldedWaveImage) {
				owner.noteFire(node, wave, folded)
				fw := firedWave{node: node, wave: wave}
				snap, err := owner.cl.SnapshotMember()
				if err != nil {
					t.Errorf("reading node state at fire: %v", err)
					snap = &core.MemberSnapshot{}
				}
				for _, img := range snap.Nodes {
					if img.Self.ID == node && len(img.InFlight) > 0 {
						// The wave just fired is the newest in flight.
						for _, op := range img.InFlight[len(img.InFlight)-1].Own {
							fw.own = append(fw.own, op.ReqID)
						}
					}
				}
				fires = append(fires, fw)
			})
		})
		c, err := skueue.Open(skueue.WithRemote(owner.Addr()))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		// Blocking and pipelined operations: a pipelined burst lands in
		// several runner tasks around one fire.
		for i := 0; i < 10; i++ {
			if err := c.Enqueue(ctx, fmt.Sprintf("b-%d", i)); err != nil {
				t.Fatal(err)
			}
			var fs []*skueue.Future
			for k := 0; k < 4; k++ {
				f, err := c.DequeueAsync(skueue.AnyProcess)
				if err != nil {
					t.Fatal(err)
				}
				fs = append(fs, f)
			}
			for _, f := range fs {
				if err := f.Wait(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		time.Sleep(2 * coarseTick)
		owner.peer.DoSync(func() {}) // every fire so far is in fires
		owner.Kill()                 // no final snapshot, no compaction

		recs, err := readJournal(filepath.Join(dirs[1], journalFile))
		if err != nil {
			t.Fatal(err)
		}
		opRec := make(map[uint64]journalRecord)
		for _, rec := range recs {
			if rec.Kind == recOp {
				opRec[rec.ReqID] = rec
			}
		}
		const ops = 50
		if len(opRec) != ops {
			t.Fatalf("journal holds %d op records, want %d", len(opRec), ops)
		}
		carried := 0
		for _, fw := range fires {
			for _, reqID := range fw.own {
				carried++
				rec, ok := opRec[reqID]
				if !ok {
					t.Fatalf("op %d rode wave %d of node %d but has no op record", reqID, fw.wave, fw.node)
				}
				if rec.Node != fw.node || rec.Wave != fw.wave-1 {
					t.Fatalf("op %d rode wave %d of node %d, but its record names node %d after wave %d: a restart would replay it into wave %d",
						reqID, fw.wave, fw.node, rec.Node, rec.Wave, rec.Wave+1)
				}
			}
		}
		if carried != ops {
			t.Fatalf("fires account for %d operations, want %d", carried, ops)
		}
	})

	t.Run("KillRestartMidStream", func(t *testing.T) {
		srvs, dirs := loopbackCluster(t, 3, "queue", coarseTick, t.TempDir(), 100*time.Millisecond)
		victim := -1
		for i := 1; i < len(srvs); i++ {
			if !srvs[i].HasAnchor() {
				victim = i
				break
			}
		}
		if victim < 0 {
			t.Fatal("no non-seed member without the anchor")
		}
		c, err := skueue.Open(
			skueue.WithRemote(srvs[victim].Addr()),
			skueue.WithSession("journal-order"),
			skueue.WithDialTimeout(2*time.Second),
			skueue.WithReconnect(200, 50*time.Millisecond),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()

		// A stream of enqueues through the victim; the kill lands in the
		// middle of it, after snapshots covered the head of the stream and
		// with journaled operations in waves the snapshot does not hold.
		enqueued := make(map[string]bool)
		var futures []*skueue.Future
		submit := func(n int) {
			for i := 0; i < n; i++ {
				v := fmt.Sprintf("s-%d", len(enqueued))
				f, err := c.EnqueueAsync(skueue.AnyProcess, v)
				if err != nil {
					t.Fatalf("enqueue %s: %v", v, err)
				}
				enqueued[v] = true
				futures = append(futures, f)
				time.Sleep(coarseTick / 10)
			}
		}
		submit(30)
		srvs[victim].Kill()
		submit(10) // the session parks these until it finds the owner again
		restarted, err := New(Config{
			Addr: "127.0.0.1:0", Join: srvs[0].Addr(), StateDir: dirs[victim],
			SnapshotEvery: 100 * time.Millisecond, Tick: coarseTick,
		})
		if err != nil {
			t.Fatalf("restarting member %d: %v", victim, err)
		}
		t.Cleanup(restarted.Close)
		for i, f := range futures {
			if err := f.Wait(ctx); err != nil {
				for _, d := range restarted.Diagnose() {
					t.Logf("restarted: %s", d)
				}
				t.Fatalf("enqueue %d did not survive the restart: %v (indeterminate=%v)", i, err, f.Indeterminate())
			}
		}
		// The element ledger: every value comes out exactly once.
		dequeued := make(map[string]bool)
		for len(dequeued) < len(enqueued) {
			v, ok, err := c.Dequeue(ctx)
			if err != nil {
				t.Fatalf("dequeue with %d/%d out: %v", len(dequeued), len(enqueued), err)
			}
			if !ok {
				t.Fatalf("structure empty with %d/%d values out: operations were lost", len(dequeued), len(enqueued))
			}
			s := v.(string)
			if dequeued[s] || !enqueued[s] {
				t.Fatalf("dequeued %q: twice=%v, known=%v", s, dequeued[s], enqueued[s])
			}
			dequeued[s] = true
		}
		if _, ok, err := c.Dequeue(ctx); err != nil || ok {
			t.Fatalf("dequeue after the ledger balanced: ok=%v err=%v, want ⊥", ok, err)
		}
		if err := c.Check(); err != nil {
			t.Fatalf("Definition 1 after the restart: %v", err)
		}
	})
}

// TestReadinessJoinDoesNotSpin: across a topology change a sub-batch can
// reach a node that no longer counts its sender as a child; it is bounced
// (rejectBatch), the sender restores it and — on readiness — may fire it
// again before the topology messages caught up. That loop runs at
// loopback speed, so it must be short: a fourth member joining a busy
// 3-member cluster at a coarse tick may cost no more batch sends than the
// waves of the period account for, plus a handful per node. (Measured: no
// bounce at all, 12.0 batches per wave. A join is the only topology change
// a member host can make — servers expose no leave.)
func TestReadinessJoinDoesNotSpin(t *testing.T) {
	srvs, _ := loopbackCluster(t, 3, "queue", coarseTick, "", 0)
	c, err := skueue.Open(skueue.WithRemote(srvs[1].Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// sentAndWaves sums over the members: batches fired by any node, waves
	// assigned by the anchor (one member hosts it).
	sentAndWaves := func(members []*Server) (sent, waves int64) {
		for _, s := range members {
			s.peer.DoSync(func() {
				m := s.cl.Metrics()
				sent += m.BatchesSent
				waves += m.WavesAssigned
			})
		}
		return sent, waves
	}
	for i := 0; i < 5; i++ { // warm: every link up, the wave cycle running
		if err := c.Enqueue(ctx, fmt.Sprintf("w-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	sent0, waves0 := sentAndWaves(srvs)

	// Traffic through an old member while the newcomer's nodes integrate,
	// so sub-batches are in flight across the update phase.
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := c.Enqueue(ctx, fmt.Sprintf("d-%d", i)); err != nil {
				done <- err
				return
			}
		}
	}()
	joiner, err := New(Config{Addr: "127.0.0.1:0", Join: srvs[0].Addr(), Tick: coarseTick})
	close(stop)
	if derr := <-done; derr != nil {
		t.Fatalf("enqueue during the join: %v", derr)
	}
	if err != nil {
		t.Fatalf("joining member: %v", err)
	}
	t.Cleanup(joiner.Close)
	all := append(append([]*Server(nil), srvs...), joiner)
	// Traffic through an old member and through the joiner while the
	// joiner's nodes integrate.
	cj, err := skueue.Open(skueue.WithRemote(joiner.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer cj.Close()
	for i := 0; i < 20; i++ {
		if err := c.Enqueue(ctx, fmt.Sprintf("j-%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cj.Dequeue(ctx); err != nil {
			t.Fatal(err)
		}
	}
	sent1, waves1 := sentAndWaves(all)

	// Every node sends one batch per wave (the anchor's own fire included);
	// twelve nodes once the joiner is in.
	const nodes, slackPerNode = 12, 4
	sent, waves := sent1-sent0, waves1-waves0
	t.Logf("%d batches in %d waves (%.1f per wave)", sent, waves, float64(sent)/float64(waves))
	if most := (waves+2)*nodes + slackPerNode*nodes; sent > most {
		t.Errorf("%d batches sent over %d waves and one join, want <= %d: bounced batches are re-fired at message speed", sent, waves, most)
	}
	if err := c.Check(); err != nil {
		t.Fatalf("Definition 1: %v", err)
	}
}
