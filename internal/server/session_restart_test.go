package server_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"skueue"
	"skueue/internal/server"
)

// TestSessionSurvivesMemberRestart is the durable-session acceptance
// test: a WithSession client attached to one member submits traffic,
// the member is killed without warning (kill -9 semantics: no final
// snapshot, staged journal batches lost) with async futures in flight,
// and is restarted from its state directory on a fresh port. The client
// must ride the crash out invisibly — reconnect, locate the restarted
// owner through the address book, resume the session, and complete every
// future exactly once (no ErrUnreachable, no duplicates) — and the
// merged history must pass both Definition 1 and the per-session order
// check.
func TestSessionSurvivesMemberRestart(t *testing.T) {
	srvs, dirs := startDurableCluster(t, 3, 50*time.Millisecond)

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

	sess, err := skueue.Open(
		skueue.WithRemote(srvs[victim].Addr()),
		skueue.WithSession("restart-acceptance"),
		skueue.WithDialTimeout(2*time.Second),
		skueue.WithReconnect(200, 50*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	enqueued := make(map[string]bool)

	// Confirmed operations before the crash: their outcomes are journaled
	// and, once the periodic snapshots pass, partially compacted into the
	// victim's snapshot — restore must stitch both sources together.
	for i := 0; i < 8; i++ {
		v := fmt.Sprintf("s-pre-%d", i)
		if err := sess.Enqueue(ctx, v); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		enqueued[v] = true
	}
	time.Sleep(300 * time.Millisecond) // let a snapshot cover some of it

	// Futures in flight at the kill: any of them may be unsynced staging,
	// journaled-but-unanswered, or answered-but-undelivered when the
	// process dies. All three classes must converge to exactly-once.
	var futures []*skueue.Future
	for i := 0; i < 6; i++ {
		v := fmt.Sprintf("s-down-%d", i)
		f, err := sess.EnqueueAsync(skueue.AnyProcess, v)
		if err != nil {
			t.Fatalf("async enqueue %d: %v", i, err)
		}
		enqueued[v] = true
		futures = append(futures, f)
	}
	t.Logf("killing session owner %d with %d futures in flight", victim, len(futures))
	srvs[victim].Kill()

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

	// Every in-flight future completes cleanly: the session absorbed the
	// crash. An ErrUnreachable (or Indeterminate) here means the resume
	// failed to recover an outcome it had to.
	for i, f := range futures {
		if err := f.Wait(ctx); err != nil {
			t.Fatalf("session future %d failed across the restart: %v (indeterminate=%v)",
				i, err, f.Indeterminate())
		}
	}

	// Exactly-once delivery: drain through the same session; every value
	// must come out exactly once, nothing extra, nothing missing.
	dequeued := make(map[string]bool)
	for len(dequeued) < len(enqueued) {
		if ctx.Err() != nil {
			t.Fatalf("drain stalled with %d/%d values (ctx: %v)", len(dequeued), len(enqueued), ctx.Err())
		}
		v, ok, err := sess.Dequeue(ctx)
		if err != nil {
			t.Fatalf("dequeue: %v", err)
		}
		if !ok {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s := v.(string)
		if dequeued[s] {
			t.Fatalf("value %q dequeued twice", s)
		}
		if !enqueued[s] {
			t.Fatalf("dequeued %q was never enqueued", s)
		}
		dequeued[s] = true
	}

	// Definition 1 over the merged histories, plus the per-session order
	// check (read-your-writes / monotonic dequeues across the failover).
	if err := sess.Check(); err != nil {
		t.Fatalf("consistency check failed after session failover: %v", err)
	}
}

// TestSessionResumeRedeliversUndelivered pins the retention half of the
// exactly-once contract: outcomes that complete while the session is
// DETACHED (the client's connection died, no reconnect yet) are retained
// by the member and redelivered on resume — the reconnecting client
// collects them without re-executing anything. The second connection
// presents the same session ID and the same per-session sequences; the
// member's dedupe table must answer from retention, not inject again.
func TestSessionResumeRedeliversUndelivered(t *testing.T) {
	srvs, _ := startDurableCluster(t, 2, 50*time.Millisecond)

	sess, err := skueue.Open(
		skueue.WithRemote(srvs[1].Addr()),
		skueue.WithSession("redeliver"),
		skueue.WithDialTimeout(2*time.Second),
		skueue.WithReconnect(100, 20*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i := 0; i < 5; i++ {
		if err := sess.Enqueue(ctx, fmt.Sprintf("r-%d", i)); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}

	// Submit async, then immediately sever the TCP connection from the
	// client side of the server (CloseClientConns) so the outcomes land
	// while no connection is attached. The reconnect resumes the same
	// session and must collect all of them exactly once.
	var futures []*skueue.Future
	for i := 0; i < 5; i++ {
		f, err := sess.EnqueueAsync(skueue.AnyProcess, fmt.Sprintf("r-fly-%d", i))
		if err != nil {
			t.Fatalf("async enqueue %d: %v", i, err)
		}
		futures = append(futures, f)
	}
	srvs[1].CloseClientConns()

	for i, f := range futures {
		if err := f.Wait(ctx); err != nil {
			t.Fatalf("future %d failed across reconnect: %v", i, err)
		}
	}
	if err := sess.Check(); err != nil {
		t.Fatalf("consistency check failed after reconnect: %v", err)
	}
}
