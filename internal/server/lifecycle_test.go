package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"skueue"
	"skueue/internal/transport"
)

// JournalBatchEnv reads the SKUEUE_JOURNAL_BATCH_DELAY override the CI
// fault-injection matrix sets to run the restart and lifecycle tests with
// group commit holding batches open, so kills land on staged-but-unsynced
// records (see .github/workflows/ci.yml). Zero keeps the server default.
// Exported for the tests in package server_test.
func JournalBatchEnv(t *testing.T) time.Duration {
	t.Helper()
	v := os.Getenv("SKUEUE_JOURNAL_BATCH_DELAY")
	if v == "" {
		return 0
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		t.Fatalf("SKUEUE_JOURNAL_BATCH_DELAY=%q: %v", v, err)
	}
	return d
}

// loopbackCluster boots a members-strong loopback cluster at the given
// tick; with a state root every member is durable (its state directory is
// returned), snapshots at the given cadence and holds its journal batches
// open as long as SKUEUE_JOURNAL_BATCH_DELAY says (JournalBatchEnv).
func loopbackCluster(t *testing.T, members int, mode string, tick time.Duration, stateRoot string, snapEvery time.Duration) ([]*Server, []string) {
	t.Helper()
	lis := make([]net.Listener, members)
	addrs := make([]string, members)
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lis[i], addrs[i] = l, l.Addr().String()
	}
	srvs := make([]*Server, members)
	dirs := make([]string, members)
	for i := range srvs {
		cfg := Config{Listener: lis[i], Seed: 42, Mode: mode, Index: i, Members: addrs, Tick: tick}
		if stateRoot != "" {
			dirs[i] = filepath.Join(stateRoot, fmt.Sprintf("m%d", i))
			cfg.StateDir, cfg.SnapshotEvery, cfg.JournalBatchDelay = dirs[i], snapEvery, JournalBatchEnv(t)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		srvs[i] = s
		t.Cleanup(s.Close)
	}
	return srvs, dirs
}

// lifecycleCluster boots a 2-member loopback cluster in the given mode,
// journaled (each member with its own state directory, returned) or
// volatile.
func lifecycleCluster(t *testing.T, mode string, journaled bool) ([]*Server, []string) {
	t.Helper()
	stateRoot := ""
	if journaled {
		stateRoot = t.TempDir()
	}
	return loopbackCluster(t, 2, mode, time.Millisecond, stateRoot, 50*time.Millisecond)
}

// combinedPairJournaled reads a member's operation journal back and checks
// the durable order of a push/pop pair that combined inside the pop's
// inject call, the pair being identified by its value: the pop's op record
// must precede BOTH outcome records, or a crash between two group commits
// could make a client-visible outcome durable while the operation that
// caused it is lost. submit stages the op record before it injects, so the
// order holds by construction; this keeps it held. It reports false when a
// snapshot compacted the records away before they could be read (the three
// are staged in one runner task, so a cut never separates them).
func combinedPairJournaled(t *testing.T, dir, value string) bool {
	t.Helper()
	recs, err := readJournal(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatalf("reading the journal back: %v", err)
	}
	var pushID, popID uint64
	for _, r := range recs {
		switch {
		case r.Kind == recOp && !r.IsDeq && bytes.Contains(r.Value, []byte(value)):
			pushID = r.ReqID
		case r.Kind == recDone && bytes.Contains(r.Done.Value, []byte(value)):
			popID = r.ReqID
		}
	}
	popOp, pushDone, popDone := -1, -1, -1
	for i, r := range recs {
		switch {
		case r.Kind == recOp && r.ReqID == popID && popOp < 0:
			popOp = i
		case r.Kind == recDone && r.ReqID == pushID && pushDone < 0:
			pushDone = i
		case r.Kind == recDone && r.ReqID == popID && popDone < 0:
			popDone = i
		}
	}
	if pushID == 0 || popID == 0 || popOp < 0 {
		return false
	}
	if pushDone < popOp || popDone < popOp {
		t.Fatalf("journal order of combined pair %q: pop op record at %d, push outcome at %d, pop outcome at %d; the op record must come first",
			value, popOp, pushDone, popDone)
	}
	return true
}

// TestJournalShape: what N operations through an otherwise idle durable
// member leave in its journal — N op records and N done records, the lease
// records, a fire record per fire of its nodes and nothing per tick — and
// each op record names the
// fire count its node had when the operation was submitted: no lower than
// the count read before the client sent it, and below the count read after
// it completed (it rode a later fire). Between two operations the member
// stands idle: the count does not move while the ticks go by.
func TestJournalShape(t *testing.T) {
	// No periodic snapshot: nothing compacts the journal under the test.
	srvs, dirs := loopbackCluster(t, 2, "queue", time.Millisecond, t.TempDir(), time.Hour)
	owner := srvs[1]
	var node transport.NodeID
	owner.peer.DoSync(func() { node = owner.cl.Client(owner.cl.LocalProcs()[0]) })
	waveSeq := func() (w int64) {
		owner.peer.DoSync(func() {
			n, _ := owner.cl.Node(node)
			w = n.WaveSeq()
		})
		return w
	}
	c, err := skueue.Open(skueue.WithRemote(owner.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const ops = 20
	var before, after [ops]int64
	for i := 0; i < ops; i++ {
		before[i] = waveSeq()
		if i%2 == 0 {
			err = c.Enqueue(ctx, fmt.Sprintf("v-%d", i))
		} else {
			_, _, err = c.Dequeue(ctx)
		}
		if err != nil {
			t.Fatalf("operation %d: %v", i, err)
		}
		after[i] = waveSeq()
		time.Sleep(3 * time.Millisecond) // idle ticks between operations
	}
	owner.Kill() // no final snapshot, no compaction

	recs, err := readJournal(filepath.Join(dirs[1], journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var opRecs []journalRecord
	dones, fires := 0, 0
	for _, rec := range recs {
		switch rec.Kind {
		case recOp:
			opRecs = append(opRecs, rec)
		case recDone:
			dones++
		case recFire:
			fires++
		case recLease:
		default:
			t.Errorf("journal holds a record of kind %d: %+v", rec.Kind, rec)
		}
	}
	if len(opRecs) != ops || dones != ops {
		t.Fatalf("journal holds %d op and %d done records, want %d of each", len(opRecs), dones, ops)
	}
	// The fire log: a record per fire of a local node — the client node and
	// the left node above it, once per operation, and the first wave's
	// three — and none per tick.
	if fires < 2*ops || fires > 2*ops+3 {
		t.Errorf("journal holds %d fire records under %d operations, want two per wave and three for the first", fires, ops)
	}
	for i := 1; i < ops; i++ {
		if before[i] != after[i-1] || after[i] != before[i]+1 {
			t.Fatalf("node %d went from wave %d to %d while idle and to %d under operation %d: want no fire without work and one per operation",
				node, after[i-1], before[i], after[i], i)
		}
	}
	for i, rec := range opRecs { // blocking operations: file order is submission order
		if rec.Node != node || rec.Wave < before[i] || rec.Wave >= after[i] {
			t.Errorf("op record %d names node %d after wave %d, want node %d and a wave in [%d, %d)",
				i, rec.Node, rec.Wave, node, before[i], after[i])
		}
	}
}

// ledger is the test's own account of every element: what it put in, what
// it may have put in (an enqueue cut off mid-flight), what came out.
type ledger struct {
	t         *testing.T
	confirmed map[string]bool
	maybe     map[string]bool
	got       map[string]bool
}

func (l *ledger) out(v any) {
	l.t.Helper()
	s, ok := v.(string)
	switch {
	case !ok:
		l.t.Fatalf("dequeued %T, want string", v)
	case l.got[s]:
		l.t.Fatalf("value %q dequeued twice", s)
	case !l.confirmed[s] && !l.maybe[s]:
		l.t.Fatalf("dequeued %q was never enqueued", s)
	}
	l.got[s] = true
}

// TestOperationLifecycle runs the same assertions against the one
// operation lifecycle in all of its configurations — {volatile, journaled}
// × {connection-scoped, session} × {queue, stack}: blocking and pipelined
// operations, in stack mode a push/pop pair that completes inside the
// inject call (and, journaled, its op record ahead of both outcomes in
// the journal read back from disk), a client-facing partition
// with operations in flight followed by a resume, then Definition 1 and
// an exact element account, and an empty in-flight table on every member.
func TestOperationLifecycle(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		for _, session := range []bool{false, true} {
			for _, mode := range []string{"queue", "stack"} {
				name := fmt.Sprintf("journaled=%v/session=%v/%s", journaled, session, mode)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					runLifecycle(t, mode, journaled, session)
				})
			}
		}
	}
}

func runLifecycle(t *testing.T, mode string, journaled, session bool) {
	srvs, dirs := lifecycleCluster(t, mode, journaled)
	owner := srvs[1] // a non-seed member serves the client
	open := func() *skueue.Client {
		t.Helper()
		opts := []skueue.Option{skueue.WithRemote(owner.Addr())}
		if session {
			opts = append(opts, skueue.WithSession("lifecycle"),
				skueue.WithDialTimeout(2*time.Second), skueue.WithReconnect(100, 20*time.Millisecond))
		}
		c, err := skueue.Open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	c := open()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	led := &ledger{t: t, confirmed: map[string]bool{}, maybe: map[string]bool{}, got: map[string]bool{}}
	wait := func(what string, fs []*skueue.Future) {
		t.Helper()
		for i, f := range fs {
			if err := f.Wait(ctx); err != nil {
				t.Fatalf("%s %d: %v", what, i, err)
			}
		}
	}

	// Blocking operations.
	for i := 0; i < 4; i++ {
		v := fmt.Sprintf("block-%d", i)
		if err := c.Enqueue(ctx, v); err != nil {
			t.Fatalf("enqueue %s: %v", v, err)
		}
		led.confirmed[v] = true
	}
	for i := 0; i < 2; i++ {
		v, ok, err := c.Dequeue(ctx)
		if err != nil || !ok {
			t.Fatalf("dequeue %d: ok=%v err=%v", i, ok, err)
		}
		led.out(v)
	}

	// Pipelined operations.
	var fs []*skueue.Future
	for i := 0; i < 8; i++ {
		v := fmt.Sprintf("pipe-%d", i)
		f, err := c.EnqueueAsync(skueue.AnyProcess, v)
		if err != nil {
			t.Fatal(err)
		}
		led.confirmed[v] = true
		fs = append(fs, f)
	}
	wait("pipelined enqueue", fs)

	// The inject window: a pop injected while a push is still buffered at
	// the same node combines with it on the spot — both complete inside
	// the pop's inject call, which submit makes only after registering the
	// pop and staging its op record. Two frames written back to back
	// usually share a tick; retry until a pair did (and, journaled, until
	// its records were read back before a snapshot compacted them away).
	if mode == "stack" {
		combined := func() (n int64) {
			owner.peer.DoSync(func() { n = owner.cl.Metrics().CombinedOps })
			return n
		}
		for i, seen := 0, false; !seen; i++ {
			if i == 50 {
				t.Fatal("no push/pop pair combined inside an inject call (and was read back from the journal) in 50 attempts")
			}
			before := combined()
			v := fmt.Sprintf("pair-%02d", i)
			push, err := c.PushAsync(skueue.AnyProcess, v)
			if err != nil {
				t.Fatal(err)
			}
			pop, err := c.PopAsync(skueue.AnyProcess)
			if err != nil {
				t.Fatal(err)
			}
			wait("paired push/pop", []*skueue.Future{push, pop})
			led.confirmed[v] = true
			if pop.Empty() {
				t.Fatalf("pop %d answered bottom over a non-empty stack", i)
			}
			led.out(pop.Value())
			seen = combined() > before && (!journaled || combinedPairJournaled(t, dirs[1], v))
		}
	}

	// A client-facing partition with enqueues in flight. The cut waits
	// until the member has injected all of them (so every one of them will
	// execute, whatever its client learns) and must land while at least
	// one is still unresolved.
	const flying = 6
	midFlight := false
	for attempt := 0; !midFlight; attempt++ {
		if attempt == 5 {
			t.Fatal("no partition landed on an in-flight operation in 5 attempts")
		}
		var issued int64
		owner.peer.DoSync(func() { issued = owner.cl.Issued() })
		var cut []*skueue.Future
		var vals []string
		for i := 0; i < flying; i++ {
			v := fmt.Sprintf("fly-%d-%d", attempt, i)
			f, err := c.EnqueueAsync(skueue.AnyProcess, v)
			if err != nil {
				t.Fatal(err)
			}
			cut, vals = append(cut, f), append(vals, v)
		}
		for now := issued; now < issued+flying; {
			if ctx.Err() != nil {
				t.Fatalf("member injected %d of %d operations", now-issued, flying)
			}
			time.Sleep(100 * time.Microsecond)
			owner.peer.DoSync(func() { now = owner.cl.Issued() })
		}
		owner.mu.Lock()
		midFlight = len(owner.ops) > 0
		owner.mu.Unlock()
		owner.CloseClientConns()
		for i, f := range cut {
			err := f.Wait(ctx)
			switch {
			case err == nil:
				led.confirmed[vals[i]] = true
			case !session && errors.Is(err, skueue.ErrUnreachable) && f.Indeterminate():
				// A connection-scoped operation dies with its connection
				// as far as the client can tell.
				led.maybe[vals[i]] = true
			default:
				t.Fatalf("in-flight enqueue %d across the partition: %v", i, err)
			}
		}
		if !session {
			c = open() // connection-scoped clients fail fast; dial again
		}
	}

	// Resume: the same client (session) or its successor keeps working.
	if err := c.Enqueue(ctx, "after"); err != nil {
		t.Fatalf("enqueue after resume: %v", err)
	}
	led.confirmed["after"] = true

	// Drain. Every cut-off enqueue was injected, so all of confirmed ∪
	// maybe must come out, each exactly once; then the structure is empty.
	want := len(led.confirmed) + len(led.maybe)
	for len(led.got) < want {
		v, ok, err := c.Dequeue(ctx)
		if err != nil {
			t.Fatalf("drain with %d/%d values out: %v", len(led.got), want, err)
		}
		if !ok {
			time.Sleep(time.Millisecond) // a cut-off enqueue still completing
			continue
		}
		led.out(v)
	}
	if v, ok, err := c.Dequeue(ctx); err != nil || ok {
		t.Fatalf("dequeue after a full drain: v=%v ok=%v err=%v, want bottom", v, ok, err)
	}
	if err := c.Check(); err != nil {
		t.Fatalf("consistency check: %v", err)
	}
	if st := c.Stats(); st.Enqueues != want || st.Dequeues-st.Bottoms != want {
		t.Fatalf("history has %d enqueues and %d successful dequeues, want %d of each",
			st.Enqueues, st.Dequeues-st.Bottoms, want)
	}
	for i, s := range srvs {
		s.mu.Lock()
		n := len(s.ops)
		s.mu.Unlock()
		if n != 0 {
			t.Errorf("member %d still holds %d operations in flight after the drain", i, n)
		}
	}
}
