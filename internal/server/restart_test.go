package server_test

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"skueue"
	"skueue/internal/core"
	"skueue/internal/server"
)

// debugLogf returns a prefixed transport logger when SKUEUE_TEST_DEBUG is
// set, for diagnosing recovery wedges; nil otherwise.
func debugLogf(tag string) func(string, ...any) {
	if os.Getenv("SKUEUE_TEST_DEBUG") == "" {
		return nil
	}
	lg := log.New(os.Stderr, tag+" ", log.Ltime|log.Lmicroseconds)
	return func(format string, args ...any) { lg.Printf(format, args...) }
}

// startDurableCluster boots a loopback cluster whose members persist
// write-ahead snapshots every snapEvery, so any of them can be killed and
// restarted.
func startDurableCluster(t *testing.T, members int, snapEvery time.Duration) ([]*server.Server, []string) {
	t.Helper()
	base := t.TempDir()
	lis := make([]net.Listener, members)
	addrs := make([]string, members)
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lis[i] = l
		addrs[i] = l.Addr().String()
	}
	batchDelay := server.JournalBatchEnv(t)
	srvs := make([]*server.Server, members)
	dirs := make([]string, members)
	for i := range srvs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("m%d", i))
		s, err := server.New(server.Config{
			Listener:          lis[i],
			Seed:              42,
			Index:             i,
			Members:           addrs,
			Tick:              500 * time.Microsecond,
			StateDir:          dirs[i],
			SnapshotEvery:     snapEvery,
			JournalBatchDelay: batchDelay,
			Logf:              debugLogf(fmt.Sprintf("[m%d]", i)),
		})
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		srvs[i] = s
		t.Cleanup(s.Close)
	}
	return srvs, dirs
}

// TestMemberRestartFromSnapshot is the fail-stop recovery acceptance
// test: run traffic across a durable 3-member cluster, kill one member
// without warning (no final snapshot), keep issuing operations that
// depend on the dead member's fragment, restart it from its snapshot on a
// NEW address via the seed's rejoin handshake, and require that (a) the
// stalled operations complete once the peers' links replay, (b) the
// restarted member serves clients again, and (c) the merged history still
// passes the Definition 1 sequential-consistency checker with every value
// accounted for exactly once.
func TestMemberRestartFromSnapshot(t *testing.T) {
	srvs, dirs := startDurableCluster(t, 3, 50*time.Millisecond)

	c0, err := skueue.Open(skueue.WithRemote(srvs[0].Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	ctxTime := 120 * time.Second
	if os.Getenv("SKUEUE_TEST_DEBUG") != "" {
		ctxTime = 20 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), ctxTime)
	defer cancel()

	enqueued := make(map[string]bool)
	dequeued := make(map[string]bool)
	takeOne := func(c *skueue.Client) {
		t.Helper()
		v, ok, err := c.Dequeue(ctx)
		if err != nil {
			t.Fatalf("dequeue: %v", err)
		}
		if ok {
			s := v.(string)
			if dequeued[s] {
				t.Fatalf("value %q dequeued twice", s)
			}
			dequeued[s] = true
		}
	}

	// Phase 1: spread elements over every member's DHT fragment.
	for i := 0; i < 12; i++ {
		v := fmt.Sprintf("pre-%d", i)
		if err := c0.Enqueue(ctx, v); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		enqueued[v] = true
	}
	for i := 0; i < 4; i++ {
		takeOne(c0)
	}

	// Let the periodic snapshots cover everything above: all operations
	// have completed, so after a few intervals the only state still
	// changing is the idle wave circulation the restart protocol is built
	// to tolerate.
	time.Sleep(500 * time.Millisecond)

	// Kill a non-seed member that does not host the anchor (the seed owns
	// rejoin admission, and the anchor adds no coverage here beyond what
	// its wave buffers already get from the snapshot).
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
	t.Logf("killing member %d (no final snapshot)", victim)
	srvs[victim].Kill()

	// Phase 2: operations issued at a live member while the victim is
	// down. Any of them whose position hashes into the victim's fragment
	// stalls — buffered on the peers' links — and must complete after the
	// restart replays them. Fail-stop, not fail-silent: nothing is lost.
	var futures []*skueue.Future
	for i := 0; i < 6; i++ {
		v := fmt.Sprintf("down-%d", i)
		f, err := c0.EnqueueAsync(skueue.AnyProcess, v)
		if err != nil {
			t.Fatalf("enqueue while member down: %v", err)
		}
		enqueued[v] = true
		futures = append(futures, f)
	}
	time.Sleep(300 * time.Millisecond) // let them wedge mid-protocol

	// Restart from the snapshot on a fresh port; the rejoin handshake
	// through the seed re-broadcasts the new address.
	batchDelay := server.JournalBatchEnv(t)
	restarted, err := server.New(server.Config{
		Addr:              "127.0.0.1:0",
		Join:              srvs[0].Addr(),
		StateDir:          dirs[victim],
		SnapshotEvery:     50 * time.Millisecond,
		Tick:              500 * time.Microsecond,
		JournalBatchDelay: batchDelay,
		Logf:              debugLogf("[re]"),
	})
	if err != nil {
		t.Fatalf("restarting member %d: %v", victim, err)
	}
	t.Cleanup(restarted.Close)
	t.Logf("member %d restarted on %s", victim, restarted.Addr())

	// (a) The stalled operations complete.
	for i, f := range futures {
		if err := f.Wait(ctx); err != nil {
			for mi, s := range srvs {
				if mi == victim {
					continue
				}
				for _, d := range s.Diagnose() {
					t.Logf("member %d: %s", mi, d)
				}
			}
			for _, d := range restarted.Diagnose() {
				t.Logf("restarted member %d: %s", victim, d)
			}
			t.Fatalf("stalled enqueue %d never completed after restart: %v", i, err)
		}
		if err := f.Err(); err != nil {
			t.Fatalf("stalled enqueue %d failed: %v", i, err)
		}
	}

	// (b) The restarted member serves clients directly.
	c2, err := skueue.Open(skueue.WithRemote(restarted.Addr()))
	if err != nil {
		t.Fatalf("client via restarted member: %v", err)
	}
	defer c2.Close()
	for i := 0; i < 3; i++ {
		v := fmt.Sprintf("post-%d", i)
		if err := c2.Enqueue(ctx, v); err != nil {
			t.Fatalf("enqueue via restarted member: %v", err)
		}
		enqueued[v] = true
	}
	for i := 0; i < 5; i++ {
		takeOne(c2)
	}

	// Two more kills of the same member: idle, and between a serve and the
	// decline answering it.
	c2.Close()
	last := killsAcrossStanding(t, ctx, restarted, func() *server.Server {
		s, err := server.New(server.Config{
			Addr:              "127.0.0.1:0",
			Join:              srvs[0].Addr(),
			StateDir:          dirs[victim],
			SnapshotEvery:     time.Hour, // the image on disk is the one the helper cut
			Tick:              500 * time.Microsecond,
			JournalBatchDelay: batchDelay,
			Logf:              debugLogf("[re]"),
		})
		if err != nil {
			t.Fatalf("restarting member %d again: %v", victim, err)
		}
		t.Cleanup(s.Close)
		return s
	}, 500*time.Microsecond, enqueued)
	standing := 0
	for v := range enqueued {
		if strings.HasPrefix(v, "standing-") {
			standing++
		}
	}
	c3, err := skueue.Open(skueue.WithRemote(last.Addr()))
	if err != nil {
		t.Fatalf("client via the member's last incarnation: %v", err)
	}
	defer c3.Close()
	for i := 0; i < 3; i++ {
		takeOne(c3)
	}

	// (c) Global invariants: nothing dequeued that was not enqueued, and
	// the merged history — including the restored pre-crash completions —
	// is sequentially consistent.
	for v := range dequeued {
		if !enqueued[v] {
			t.Fatalf("dequeued %q was never enqueued", v)
		}
	}
	if err := c3.Check(); err != nil {
		t.Fatalf("sequential consistency check failed after restart: %v", err)
	}
	st := c3.Stats()
	wantTotal := 12 + 4 + 6 + 3 + 5 + standing + 3 // every operation completed exactly once
	if st.Total != wantTotal {
		t.Fatalf("merged history has %d completions, want %d (lost or duplicated operations)", st.Total, wantTotal)
	}
}

// killsAcrossStanding adds the two kills work-driven waves put into the
// restart contract, against one member hosting one process (three nodes).
// First the member is killed while the cluster has stood idle for well over
// 20 ticks, its image showing all three nodes idle: restored, they must go
// on standing idle for parents that no longer hear from them, and wake on
// the next operation. Then it is killed with an image cut between a serve
// and the decline answering it: the restored node declines again, and a
// parent that has meanwhile seen its next wave must not take that for news.
// That cut is a matter of microseconds unless something holds the decline
// back, which the stack's stage-4 wait does (a node does not decline while a
// put of its own is unacknowledged): a stack cluster usually hits it, the
// others rarely. The hunt lasts a few seconds and then kills wherever the
// image is — the exact cut is made, for all three disciplines, in
// internal/core (TestRestoreAcrossStanding).
// Operations run through a session client pinned to the member, so every
// push resolves across both restarts; their values are added to pushed. It
// returns the member's last incarnation.
func killsAcrossStanding(t *testing.T, ctx context.Context, member *server.Server, restart func() *server.Server, tick time.Duration, pushed map[string]bool) *server.Server {
	t.Helper()
	cv, err := skueue.Open(
		skueue.WithRemote(member.Addr()),
		skueue.WithSession("standing-"+t.Name()),
		skueue.WithDialTimeout(2*time.Second),
		skueue.WithReconnect(200, 50*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cv.Close()
	n := 0
	push := func() *skueue.Future {
		t.Helper()
		v := fmt.Sprintf("standing-%d", n)
		n++
		f, err := cv.EnqueueAsync(skueue.AnyProcess, v)
		if err != nil {
			t.Fatalf("push %s: %v", v, err)
		}
		pushed[v] = true
		return f
	}
	wait := func(fs ...*skueue.Future) {
		t.Helper()
		for i, f := range fs {
			if err := f.Wait(ctx); err != nil {
				for _, d := range member.Diagnose() {
					t.Logf("member: %s", d)
				}
				t.Fatalf("push %d of %d did not survive the restart: %v (indeterminate=%v)", i, len(fs), err, f.Indeterminate())
			}
		}
	}
	snapshot := func() core.SnapshotStats {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; {
			err := member.SnapshotNow()
			if err == nil {
				_, stats := member.SnapshotInfo()
				return stats
			}
			if time.Now().After(deadline) {
				t.Fatalf("snapshot: %v", err)
			}
		}
	}

	// (a) Idle for 20 ticks and more.
	wait(push())
	time.Sleep(40 * tick)
	if stats := snapshot(); stats.IdleNodes != 3 || stats.ServedNodes != 0 {
		t.Fatalf("image after 40 idle ticks: %d nodes idle, %d served; want all three idle", stats.IdleNodes, stats.ServedNodes)
	}
	member.Kill()
	member = restart()
	wait(push(), push())

	// (b) Between a serve and its decline: pushes in flight, snapshots
	// back to back until one cuts there.
	var inFlight []*skueue.Future
	caught := false
hunt:
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); {
		for i := 0; i < 4; i++ {
			inFlight = append(inFlight, push())
		}
		for attempt := 0; attempt < 8; attempt++ {
			if err := member.SnapshotNow(); err != nil {
				continue
			}
			if _, stats := member.SnapshotInfo(); stats.ServedNodes > 0 {
				caught = true
				break hunt
			}
		}
	}
	t.Logf("killing with pushes in flight; image cut between a serve and its decline: %v", caught)
	member.Kill()
	member = restart()
	wait(inFlight...)
	wait(push())
	return member
}

// startStackCluster boots a durable loopback STACK-mode cluster. Snapshot
// intervals are effectively infinite: the test drives the victim's
// snapshots by hand (SnapshotNow) so it can kill the member at a moment
// when the on-disk image provably holds a non-empty combiner residual.
func startStackCluster(t *testing.T, members int) ([]*server.Server, []string) {
	t.Helper()
	base := t.TempDir()
	lis := make([]net.Listener, members)
	addrs := make([]string, members)
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lis[i] = l
		addrs[i] = l.Addr().String()
	}
	batchDelay := server.JournalBatchEnv(t)
	srvs := make([]*server.Server, members)
	dirs := make([]string, members)
	for i := range srvs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("m%d", i))
		s, err := server.New(server.Config{
			Listener:          lis[i],
			Seed:              43,
			Mode:              "stack",
			Index:             i,
			Members:           addrs,
			Tick:              time.Millisecond,
			StateDir:          dirs[i],
			SnapshotEvery:     time.Hour,
			JournalBatchDelay: batchDelay,
			Logf:              debugLogf(fmt.Sprintf("[s%d]", i)),
		})
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		srvs[i] = s
		t.Cleanup(s.Close)
	}
	return srvs, dirs
}

// TestStackMemberRestartExactlyOnce is the stack-mode fail-stop
// acceptance test: a member is killed mid-traffic with pending pushes in
// its combiner residual (provably captured in its last snapshot) and
// pops in flight across the cluster, restarted from the snapshot plus
// operation journal on a new port, and every operation must then resolve
// with exactly-once semantics — every confirmed push is popped exactly
// once, no value is ever popped twice, operations that stalled while the
// member was down complete, and the merged history passes the
// Definition 1 checker.
func TestStackMemberRestartExactlyOnce(t *testing.T) {
	srvs, dirs := startStackCluster(t, 3)

	c0, err := skueue.Open(skueue.WithRemote(srvs[0].Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	ctxTime := 120 * time.Second
	if os.Getenv("SKUEUE_TEST_DEBUG") != "" {
		ctxTime = 20 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), ctxTime)
	defer cancel()

	confirmed := make(map[string]bool) // pushes whose CliDone the client saw
	maybe := make(map[string]bool)     // pushes in flight at the kill
	popped := make(map[string]bool)    // values returned by any pop
	notePop := func(v any, ok bool) {
		t.Helper()
		if !ok {
			return
		}
		s := v.(string)
		if popped[s] {
			t.Fatalf("value %q popped twice", s)
		}
		popped[s] = true
	}

	// Phase 1: settled traffic so every member's fragment holds elements.
	for i := 0; i < 8; i++ {
		v := fmt.Sprintf("seed-%d", i)
		if err := c0.Enqueue(ctx, v); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		confirmed[v] = true
	}
	for i := 0; i < 2; i++ {
		v, ok, err := c0.Dequeue(ctx)
		if err != nil {
			t.Fatalf("pop: %v", err)
		}
		notePop(v, ok)
	}

	// Pick a non-seed victim without the anchor, and a client pinned to it.
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
	cv, err := skueue.Open(skueue.WithRemote(srvs[victim].Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer cv.Close()

	// Phase 2: hunt for a snapshot with a non-empty combiner residual.
	// Pushes submitted at the victim sit in its §VI combiner between
	// injection and the next wave fire; keep submitting bursts and
	// snapshotting until the cut lands inside such a window.
	var vicFutures []*skueue.Future
	var vicValues []string
	vicSeq := 0
	sawResidual := false
hunt:
	for deadline := time.Now().Add(90 * time.Second); time.Now().Before(deadline); {
		for i := 0; i < 8; i++ {
			v := fmt.Sprintf("vic-%d", vicSeq)
			vicSeq++
			f, err := cv.EnqueueAsync(skueue.AnyProcess, v)
			if err != nil {
				t.Fatalf("push at victim: %v", err)
			}
			vicFutures = append(vicFutures, f)
			vicValues = append(vicValues, v)
		}
		// Several snapshot attempts per burst: the residual lives from a
		// push's injection to its node's next wave fire, so the cut has to
		// land inside that window.
		for attempt := 0; attempt < 5; attempt++ {
			if err := srvs[victim].SnapshotNow(); err != nil {
				continue // not quiescent this instant; try again
			}
			if _, stats := srvs[victim].SnapshotInfo(); stats.CombinerPushes > 0 {
				sawResidual = true
				break hunt
			}
		}
	}
	if !sawResidual {
		t.Fatal("never caught a snapshot with a non-empty combiner residual")
	}

	// Pops in flight cluster-wide at the kill.
	var popFutures []*skueue.Future
	for i := 0; i < 3; i++ {
		f, err := c0.DequeueAsync(skueue.AnyProcess)
		if err != nil {
			t.Fatalf("async pop: %v", err)
		}
		popFutures = append(popFutures, f)
	}

	_, stats := srvs[victim].SnapshotInfo()
	t.Logf("killing member %d (snapshot residual: %d pops, %d pushes)",
		victim, stats.CombinerPops, stats.CombinerPushes)
	srvs[victim].Kill()

	// Classify the victim-submitted pushes: resolved futures are
	// confirmed (their outcome was journaled before release and must
	// survive); the rest are indeterminate — exactly-once allows them to
	// surface zero or one time, never twice.
	shortCtx, shortCancel := context.WithTimeout(context.Background(), 2*time.Second)
	for i, f := range vicFutures {
		if err := f.Wait(shortCtx); err == nil && f.Err() == nil {
			confirmed[vicValues[i]] = true
		} else {
			maybe[vicValues[i]] = true
		}
	}
	shortCancel()

	// Phase 3: operations issued while the victim is down stall on its
	// fragment and must complete after the restart.
	var downFutures []*skueue.Future
	for i := 0; i < 4; i++ {
		v := fmt.Sprintf("down-%d", i)
		f, err := c0.EnqueueAsync(skueue.AnyProcess, v)
		if err != nil {
			t.Fatalf("push while member down: %v", err)
		}
		confirmed[v] = true
		downFutures = append(downFutures, f)
	}
	time.Sleep(300 * time.Millisecond)

	batchDelay := server.JournalBatchEnv(t)
	restarted, err := server.New(server.Config{
		Addr:              "127.0.0.1:0",
		Join:              srvs[0].Addr(),
		StateDir:          dirs[victim],
		SnapshotEvery:     50 * time.Millisecond,
		Tick:              time.Millisecond,
		JournalBatchDelay: batchDelay,
		Logf:              debugLogf("[re]"),
	})
	if err != nil {
		t.Fatalf("restarting member %d: %v", victim, err)
	}
	t.Cleanup(restarted.Close)
	t.Logf("member %d restarted on %s", victim, restarted.Addr())

	// (a) Stalled operations complete: the in-flight pops and the pushes
	// issued during the outage.
	dumpDiagnostics := func() {
		for mi, s := range srvs {
			if mi == victim {
				continue
			}
			for _, d := range s.Diagnose() {
				t.Logf("member %d: %s", mi, d)
			}
		}
		for _, d := range restarted.Diagnose() {
			t.Logf("restarted member %d: %s", victim, d)
		}
	}
	for i, f := range popFutures {
		if err := f.Wait(ctx); err != nil {
			dumpDiagnostics()
			t.Fatalf("stalled pop %d never completed after restart: %v", i, err)
		}
		if f.Err() != nil {
			t.Fatalf("stalled pop %d failed: %v", i, f.Err())
		}
		if !f.Empty() {
			notePop(f.Value(), true)
		}
	}
	for i, f := range downFutures {
		if err := f.Wait(ctx); err != nil {
			dumpDiagnostics()
			t.Fatalf("stalled push %d never completed after restart: %v", i, err)
		}
		if f.Err() != nil {
			t.Fatalf("stalled push %d failed: %v", i, f.Err())
		}
	}

	// (b) The restarted member serves clients; add a few more confirmed
	// pushes through it.
	c2, err := skueue.Open(skueue.WithRemote(restarted.Addr()))
	if err != nil {
		t.Fatalf("client via restarted member: %v", err)
	}
	defer c2.Close()
	for i := 0; i < 3; i++ {
		v := fmt.Sprintf("post-%d", i)
		if err := c2.Enqueue(ctx, v); err != nil {
			t.Fatalf("push via restarted member: %v", err)
		}
		confirmed[v] = true
	}

	// Two more kills of the same member: idle, and between a serve and the
	// decline answering it (with the stage-4 wait holding declines back).
	c2.Close()
	last := killsAcrossStanding(t, ctx, restarted, func() *server.Server {
		s, err := server.New(server.Config{
			Addr:              "127.0.0.1:0",
			Join:              srvs[0].Addr(),
			StateDir:          dirs[victim],
			SnapshotEvery:     time.Hour, // the image on disk is the one the helper cut
			Tick:              time.Millisecond,
			JournalBatchDelay: batchDelay,
			Logf:              debugLogf("[re]"),
		})
		if err != nil {
			t.Fatalf("restarting member %d again: %v", victim, err)
		}
		t.Cleanup(s.Close)
		return s
	}, time.Millisecond, confirmed)
	restarted = last
	if c2, err = skueue.Open(skueue.WithRemote(restarted.Addr())); err != nil {
		t.Fatalf("client via the member's last incarnation: %v", err)
	}
	defer c2.Close()

	// (c) Drain the stack completely: journaled victim pushes re-executed
	// after the restart keep materializing for a while, so only stop
	// after several consecutive empty rounds.
	emptyRounds := 0
	for emptyRounds < 3 {
		v, ok, err := c2.Dequeue(ctx)
		if err != nil {
			dumpDiagnostics()
			t.Fatalf("drain pop: %v", err)
		}
		if !ok {
			emptyRounds++
			time.Sleep(150 * time.Millisecond)
			continue
		}
		emptyRounds = 0
		notePop(v, true)
	}

	// (d) Exactly-once accounting: every pop returned a value that was
	// pushed; every confirmed push surfaced exactly once (notePop already
	// rules out twice); indeterminate pushes surfaced at most once.
	for v := range popped {
		if !confirmed[v] && !maybe[v] {
			t.Fatalf("popped %q was never pushed", v)
		}
	}
	for v := range confirmed {
		if !popped[v] {
			t.Fatalf("confirmed push %q was lost (never popped before the stack drained)", v)
		}
	}

	// (e) The merged history — including the restored and re-executed
	// completions — is sequentially consistent.
	if err := c2.Check(); err != nil {
		t.Fatalf("sequential consistency check failed after stack restart: %v", err)
	}
}

// TestJoinUnreachableSeedFailsFast pins the fail-fast contract of the
// admission handshake: a member pointed at a dead seed address must
// return a clear error once the give-up timeout expires — not hang.
func TestJoinUnreachableSeedFailsFast(t *testing.T) {
	// Reserve an address nobody listens on.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	l.Close()

	start := time.Now()
	_, err = server.New(server.Config{
		Addr:   "127.0.0.1:0",
		Join:   deadAddr,
		GiveUp: 500 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("joining an unreachable seed succeeded?")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("join took %v to fail; the give-up timeout should bound it", elapsed)
	}
	t.Logf("join failed fast with: %v", err)
}

// TestSilentSeedFailsFast covers the nastier variant: the seed address
// accepts connections but never answers the handshake. Without read
// deadlines this used to hang the joining member forever.
func TestSilentSeedFailsFast(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			_ = c // accept and say nothing
		}
	}()

	start := time.Now()
	_, err = server.New(server.Config{
		Addr:   "127.0.0.1:0",
		Join:   l.Addr().String(),
		GiveUp: 500 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("joining a silent seed succeeded?")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("join took %v to fail; deadlines should bound every read", elapsed)
	}
	t.Logf("join failed fast with: %v", err)
}

// TestRestartWithWavesInFlight kills a durable queue member whose image
// holds a node with at least two waves in flight: the node fired its next
// wave before the last one was served. Pushes through a session pinned to
// the member keep its client node pipelining while snapshots are cut back
// to back, and the member dies the moment one of them shows the pipeline.
// Restored from that image, with its peers' link replay and its fire log,
// it must complete every push exactly once; a client at another member then
// takes every element out again, and the merged history passes Definition 1
// with each operation in it once.
func TestRestartWithWavesInFlight(t *testing.T) {
	srvs, dirs := startDurableCluster(t, 3, time.Hour) // the image on disk is the one the test cut
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
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cv, err := skueue.Open(
		skueue.WithRemote(srvs[victim].Addr()),
		skueue.WithSession("pipeline-"+t.Name()),
		skueue.WithDialTimeout(2*time.Second),
		skueue.WithReconnect(200, 50*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cv.Close()

	pushed := make(map[string]bool)
	var futures []*skueue.Future
	deepest := 0
	for deadline := time.Now().Add(20 * time.Second); deepest < 2 && time.Now().Before(deadline); {
		for i := 0; i < 16; i++ {
			v := fmt.Sprintf("wave-%d", len(futures))
			f, err := cv.EnqueueAsync(skueue.AnyProcess, v)
			if err != nil {
				t.Fatalf("push %s: %v", v, err)
			}
			pushed[v] = true
			futures = append(futures, f)
		}
		for attempt := 0; attempt < 8 && deepest < 2; attempt++ {
			if srvs[victim].SnapshotNow() == nil {
				_, stats := srvs[victim].SnapshotInfo()
				deepest = stats.DeepestPipeline
			}
		}
	}
	if deepest < 2 {
		t.Fatalf("no image of member %d showed a node with two waves in flight in %d pushes", victim, len(futures))
	}
	t.Logf("killing member %d with %d pushes issued; its image holds a node with %d waves in flight", victim, len(futures), deepest)
	srvs[victim].Kill()
	restarted, err := server.New(server.Config{
		Addr:              "127.0.0.1:0",
		Join:              srvs[0].Addr(),
		StateDir:          dirs[victim],
		SnapshotEvery:     time.Hour,
		Tick:              500 * time.Microsecond,
		JournalBatchDelay: server.JournalBatchEnv(t),
		Logf:              debugLogf("[re]"),
	})
	if err != nil {
		t.Fatalf("restarting member %d: %v", victim, err)
	}
	t.Cleanup(restarted.Close)
	for i, f := range futures {
		if err := f.Wait(ctx); err != nil {
			for _, d := range restarted.Diagnose() {
				t.Logf("restarted member: %s", d)
			}
			t.Fatalf("push %d of %d did not survive the restart: %v (indeterminate=%v)", i, len(futures), err, f.Indeterminate())
		}
	}

	c0, err := skueue.Open(skueue.WithRemote(srvs[0].Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	taken := make(map[string]bool)
	for range pushed {
		v, ok, err := c0.Dequeue(ctx)
		if err != nil || !ok {
			t.Fatalf("dequeue %d of %d: ok=%v err=%v", len(taken)+1, len(pushed), ok, err)
		}
		s := v.(string)
		if !pushed[s] || taken[s] {
			t.Fatalf("dequeued %q: pushed=%v, taken before=%v", s, pushed[s], taken[s])
		}
		taken[s] = true
	}
	if err := c0.Check(); err != nil {
		t.Fatalf("sequential consistency check failed after restart: %v", err)
	}
	if st := c0.Stats(); st.Total != 2*len(pushed) {
		t.Fatalf("merged history has %d completions, want %d (lost or duplicated operations)", st.Total, 2*len(pushed))
	}
}
