package server

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"skueue/internal/core"
	"skueue/internal/transport"
	"skueue/internal/wire"
)

// reqID builds a member-1-tagged request ID with the given local sequence.
func reqID(seq uint64) uint64 { return 1<<40 | seq }

// openTestJournal opens a group-commit journal with the default batching
// (the writer flushes whenever it is idle).
func openTestJournal(t *testing.T, dir string, fresh bool) *opJournal {
	t.Helper()
	j, err := openJournal(dir, fresh, 0)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// durably waits until everything staged so far is on disk and fails the
// test if the journal, or the release of the record just staged (*rel),
// reports an error. The barrier's own release runs after every earlier
// one on the writer goroutine, which orders the read of *rel.
func durably(t *testing.T, j *opJournal, what string, rel *error) {
	t.Helper()
	if err := j.barrier(); err != nil {
		t.Fatalf("%s: barrier: %v", what, err)
	}
	if *rel != nil {
		t.Fatalf("%s: %v", what, *rel)
	}
}

// syncAppendOp appends one op and returns once it is durable.
func syncAppendOp(t *testing.T, j *opJournal, node transport.NodeID, id uint64, isDeq bool, value []byte) {
	t.Helper()
	var got error
	j.appendOp(journalRecord{Node: node, ReqID: id, IsDeq: isDeq, Value: value}, func(err error) { got = err })
	durably(t, j, "appendOp", &got)
}

// syncAppendDone appends one outcome and returns once it is durable.
func syncAppendDone(t *testing.T, j *opJournal, id uint64, done wire.CliDone) {
	t.Helper()
	var got error
	j.appendDone(id, done, func(err error) { got = err })
	durably(t, j, "appendDone", &got)
}

// TestJournalTornTail verifies a crash mid-append costs only the torn
// record: the valid prefix loads, the garbage is ignored.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir, true)
	syncAppendOp(t, j, 3, reqID(1), false, []byte("ok"))
	j.close()
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A torn frame: plausible length prefix, half a body.
	if _, err := f.Write([]byte{0, 0, 0, 200, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ReqID != reqID(1) {
		t.Fatalf("torn journal loaded %d records, want the 1 valid prefix record", len(recs))
	}
}

// TestJournalGroupCommitReleasesInOrder drives the batched path: many
// staged appends, releases fired by the writer goroutine strictly in
// staging order and only with nil (every fsync succeeded), and the file
// holding every record in that same order.
func TestJournalGroupCommitReleasesInOrder(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	type fired struct {
		seq uint64
		err error
	}
	got := make(chan fired, n)
	node := transport.NodeID(3)
	for i := uint64(1); i <= n; i++ {
		id := reqID(i)
		j.appendOp(journalRecord{Node: node, ReqID: id, Value: []byte("v")}, func(err error) {
			got <- fired{seq: id, err: err}
		})
	}
	for i := uint64(1); i <= n; i++ {
		f := <-got
		if f.err != nil {
			t.Fatalf("release %d reported %v", i, f.err)
		}
		if f.seq != reqID(i) {
			t.Fatalf("release %d fired for op %d: releases out of staging order", i, f.seq&(1<<40-1))
		}
	}
	j.close()
	recs, err := readJournal(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("journal holds %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.ReqID != reqID(uint64(i+1)) {
			t.Fatalf("record %d is op %d, want %d", i, r.ReqID&(1<<40-1), i+1)
		}
	}
}

// TestJournalBarrierForcesFlush pins the durability handshake snapshot
// compaction relies on: with a long accumulation delay the writer sits on
// the staged batch, offset() already counts it (the logical cut), and
// barrier() must flush it immediately — not after the delay — so the
// logical boundary becomes durable.
func TestJournalBarrierForcesFlush(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir, true, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	j.appendOp(journalRecord{Node: 3, ReqID: reqID(1), Value: []byte("v")}, nil)
	logical := j.offset()
	j.wmu.Lock()
	durable := j.durable
	j.wmu.Unlock()
	if logical <= durable {
		t.Fatalf("logical length %d not ahead of durable %d while the batch is held open", logical, durable)
	}
	start := time.Now()
	if err := j.barrier(); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("barrier took %v; it must preempt the accumulation delay", elapsed)
	}
	j.wmu.Lock()
	durable = j.durable
	j.wmu.Unlock()
	if durable != logical {
		t.Fatalf("durable length %d after barrier, want %d", durable, logical)
	}
}

// TestJournalTornBatchTail pins the torn-BATCH contract of group commit:
// several records synced as one batch, a crash tearing the file inside
// the batch — at a record boundary or mid-record — loses only the records
// past the tear, and the valid prefix (including earlier records of the
// same batch) still loads.
func TestJournalTornBatchTail(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir, true, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	node := transport.NodeID(3)
	var frames []int // encoded length of each record, in file order
	for i := uint64(1); i <= 3; i++ {
		value := []byte(fmt.Sprintf("value-%d", i))
		b, err := encodeRecord(&journalRecord{Kind: recOp, ReqID: reqID(i), Node: node, IsDeq: false, Value: value})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, len(b))
		j.appendOp(journalRecord{Node: node, ReqID: reqID(i), Value: value}, nil)
	}
	// All three are still one staged batch (huge delay, cap not reached);
	// the barrier flushes them as a single write+fsync.
	if err := j.barrier(); err != nil {
		t.Fatal(err)
	}
	j.close()

	path := filepath.Join(dir, journalFile)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != frames[0]+frames[1]+frames[2] {
		t.Fatalf("batch wrote %d bytes, want %d", len(whole), frames[0]+frames[1]+frames[2])
	}
	for _, tc := range []struct {
		name string
		keep int // file length after the simulated tear
		want int // surviving records
	}{
		{"mid-record", frames[0] + frames[1]/2, 1},
		{"record-boundary", frames[0] + frames[1], 2},
	} {
		if err := os.WriteFile(path, whole[:tc.keep], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := readJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != tc.want {
			t.Fatalf("%s tear: loaded %d records, want %d", tc.name, len(recs), tc.want)
		}
		for i, r := range recs {
			if r.ReqID != reqID(uint64(i+1)) {
				t.Fatalf("%s tear: record %d is op %d, want %d", tc.name, i, r.ReqID&(1<<40-1), i+1)
			}
		}
	}
}

// TestJournalCompactionDoesNotBlockAppends parks a compaction between its
// bulk suffix copy and its swap critical section and requires appends —
// including their fsync — to complete meanwhile: the old implementation
// held the append lock across the whole copy, freezing the member for the
// duration.
func TestJournalCompactionDoesNotBlockAppends(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir, true)
	node := transport.NodeID(3)
	syncAppendOp(t, j, node, reqID(1), false, []byte("old"))
	boundary := j.offset()
	syncAppendOp(t, j, node, reqID(2), false, []byte("keep"))

	entered := make(chan struct{})
	resume := make(chan struct{})
	j.testCompactPause = func() {
		close(entered)
		<-resume
	}
	compacted := make(chan error, 1)
	go func() { compacted <- j.truncatePrefix(boundary) }()
	<-entered

	// The compaction is mid-flight; a full append (stage + write + fsync)
	// must still go through.
	appended := make(chan struct{})
	go func() {
		syncAppendOp(t, j, node, reqID(3), true, nil)
		close(appended)
	}()
	select {
	case <-appended:
	case <-time.After(10 * time.Second):
		t.Fatal("append blocked behind an in-flight compaction")
	}
	close(resume)
	if err := <-compacted; err != nil {
		t.Fatalf("truncatePrefix: %v", err)
	}
	j.close()

	// The rewritten journal holds the suffix plus the append that raced
	// the compaction, in order.
	recs, err := readJournal(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, r := range recs {
		got = append(got, r.ReqID&(1<<40-1))
	}
	if fmt.Sprint(got) != fmt.Sprint([]uint64{2, 3}) {
		t.Fatalf("compacted journal holds ops %v, want [2 3]", got)
	}
}

// checkReplayPlan asserts the re-submission schedule the record table
// below describes, against a snapshot covering sequences <= 6 and wave 12
// of nodeA: seq 5 skipped, seq 7 immediate, seqs 8 and 9 held for wave 13,
// seq 10 for wave 14; outcomes audited for seq 7 only.
func checkReplayPlan(t *testing.T, recs []journalRecord) {
	t.Helper()
	nodeA := transport.NodeID(3)
	plan, err := buildReplayPlan(recs, 6, map[transport.NodeID]int64{nodeA: 12})
	if err != nil {
		t.Fatal(err)
	}

	if len(plan.immediate) != 1 || plan.immediate[0].ReqID != reqID(7) {
		t.Fatalf("immediate = %+v, want the single op seq 7", plan.immediate)
	}
	if got := plan.pending(); got != 3 {
		t.Fatalf("plan holds %d ops, want 3", got)
	}
	if _, ok := plan.outcomes[reqID(7)]; !ok {
		t.Fatal("post-cut done record missing from outcomes")
	}
	if _, ok := plan.outcomes[reqID(5)]; ok {
		t.Fatal("snapshot-covered done record leaked into outcomes")
	}

	// Wave 12 re-fires first: releases nothing (first group waits for 13).
	if out := plan.take(nodeA, 12); len(out) != 0 {
		t.Fatalf("wave 12 released %d ops, want 0", len(out))
	}
	// Wave 13: releases seqs 8 and 9, but NOT the group behind wave 14.
	out := plan.take(nodeA, 13)
	if len(out) != 2 || out[0].ReqID != reqID(8) || out[1].ReqID != reqID(9) {
		t.Fatalf("wave 13 released %+v, want seqs 8, 9", out)
	}
	out = plan.take(nodeA, 14)
	if len(out) != 1 || out[0].ReqID != reqID(10) || !out[0].IsDeq {
		t.Fatalf("wave 14 released %+v, want the dequeue seq 10", out)
	}
	if plan.pending() != 0 {
		t.Fatalf("plan still holds %d ops after all boundaries", plan.pending())
	}
}

// TestReplayPlanGrouping pins the re-submission schedule: snapshot-covered
// records are skipped, ops whose wave the snapshotted node had already
// fired are immediate, and held groups release strictly in order as their
// node's waves re-fire.
func TestReplayPlanGrouping(t *testing.T) {
	nodeA := transport.NodeID(3)
	checkReplayPlan(t, []journalRecord{
		{Kind: recOp, Node: nodeA, ReqID: reqID(5), Wave: 9},                      // covered by snapshot (seq <= 6)
		{Kind: recOp, Node: nodeA, ReqID: reqID(7), Wave: 10, Value: []byte("i")}, // post-cut, buffered at it (wave <= 12)
		{Kind: recOp, Node: nodeA, ReqID: reqID(8), Wave: 13},
		{Kind: recOp, Node: nodeA, ReqID: reqID(9), Wave: 13},
		{Kind: recOp, Node: nodeA, ReqID: reqID(10), Wave: 14, IsDeq: true},
		{Kind: recDone, ReqID: reqID(7), Done: wire.CliDone{ReqID: reqID(7)}},
		{Kind: recDone, ReqID: reqID(5), Done: wire.CliDone{ReqID: reqID(5)}}, // covered
	})
}

// TestStateDirWithFireMarkerFailsToOpen: a member whose state directory is
// in an older format refuses to restart, with an error naming what it cannot
// read, rather than restoring by guesswork. Three rows:
//   - a journal holding a per-node fire marker (record kind 3), which older
//     journals filed ahead of op records that named no wave;
//   - a version-1 snapshot, whose nodes each held one processing batch where
//     version 2 holds the list of waves in flight: gob would drop the batch
//     and restore the node with its wave lost;
//   - a version-4 snapshot, whose nodes held their neighbourhood in separate
//     fields where version 5 holds it as one value: gob would drop them and
//     restore every node with no ring neighbours.
func TestStateDirWithFireMarkerFailsToOpen(t *testing.T) {
	downgrade := func(version int) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			disk, err := loadSnapshot(dir)
			if err != nil {
				t.Fatal(err)
			}
			disk.Version = version
			if err := writeSnapshot(dir, disk); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		age  func(t *testing.T, dir string) // rewrites dir into the older format
		want string
	}{
		{"kind-3 journal record", func(t *testing.T, dir string) {
			marker, err := encodeRecord(&journalRecord{Kind: 3, Node: 3, Wave: 1})
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(marker); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}, "kind 3"},
		{"version-1 snapshot", downgrade(1), "version 1"},
		{"version-4 snapshot", downgrade(4), "version 4"},
		{"version-5 snapshot", downgrade(5), "version 5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lis := make([]net.Listener, 2)
			addrs := make([]string, 2)
			for i := range lis {
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				lis[i], addrs[i] = l, l.Addr().String()
			}
			dir := filepath.Join(t.TempDir(), "m1")
			var member *Server
			for i := range lis {
				cfg := Config{Listener: lis[i], Seed: 42, Index: i, Members: addrs, Tick: 500 * time.Microsecond}
				if i == 1 {
					cfg.StateDir, cfg.SnapshotEvery = dir, time.Hour
				}
				s, err := New(cfg)
				if err != nil {
					t.Fatalf("server %d: %v", i, err)
				}
				t.Cleanup(s.Close)
				member = s
			}
			// A member just booted may still have frames in flight.
			deadline := time.Now().Add(10 * time.Second)
			for err := member.SnapshotNow(); err != nil; err = member.SnapshotNow() {
				if !errors.Is(err, core.ErrNotQuiescent) || time.Now().After(deadline) {
					t.Fatal(err)
				}
				time.Sleep(time.Millisecond)
			}
			member.Kill()
			tc.age(t, dir)

			s, err := New(Config{Addr: "127.0.0.1:0", Join: addrs[0], StateDir: dir, SnapshotEvery: time.Hour, Tick: 500 * time.Microsecond})
			if err == nil {
				s.Close()
				t.Fatalf("a state directory holding a %s opened", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("the refusal does not name the %s: %v", tc.want, err)
			}
		})
	}
}

// TestJournalCompact verifies offset compaction drops everything before a
// capture boundary, keeps the suffix byte-identical, and leaves the
// journal appendable — including across a close/reopen (the restart
// path), which must pick the size up from disk.
func TestJournalCompact(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir, true)
	nodeA := transport.NodeID(3)
	syncAppendOp(t, j, nodeA, reqID(1), false, nil)
	// A snapshot capture happens here: its boundary covers seq 1.
	boundary := j.offset()
	syncAppendOp(t, j, nodeA, reqID(2), false, nil)
	syncAppendDone(t, j, reqID(2), wire.CliDone{})
	if err := j.truncatePrefix(boundary); err != nil {
		t.Fatal(err)
	}
	// The journal stays appendable after the rewrite.
	syncAppendOp(t, j, nodeA, reqID(3), true, nil)
	j.close()

	// Reopen (as a restart would) and append once more: size must resume
	// from the on-disk length, not zero.
	j2, err := openJournal(dir, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	j2.appendDone(reqID(3), wire.CliDone{Bottom: true}, nil)
	if err := j2.barrier(); err != nil {
		t.Fatal(err)
	}
	j2.close()

	recs, err := readJournal(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range recs {
		got = append(got, fmt.Sprintf("%d:%d", r.Kind, r.ReqID&(1<<40-1)))
	}
	// Seq 1's record is gone; the post-boundary suffix (seq 2's op and
	// done) plus both later appends remain.
	want := []string{"1:2", "2:2", "1:3", "2:3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("compacted journal holds %v, want %v", got, want)
	}
}

// TestJournalSequenceLease pins the re-issue guard: sequences are only
// covered below a DURABLE ceiling, extensions are staged ahead of use
// and become effective once synced, and a reopened journal recovers the
// ceiling from its records — so a crash can never re-issue a request ID
// the dead incarnation might already have leaked to a peer.
func TestJournalSequenceLease(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir, true)
	if j.coverSeq(1) {
		t.Fatal("sequence covered before any lease is durable")
	}
	// coverSeq staged an extension; it counts once it has synced.
	if err := j.barrier(); err != nil {
		t.Fatal(err)
	}
	if !j.coverSeq(1) {
		t.Fatal("sequence not covered after the lease synced")
	}
	if j.coverSeq(leaseSpan + 1) {
		t.Fatal("sequence beyond the ceiling covered")
	}
	j.close()

	// The ceiling survives in the records: a restart must advance the
	// request counter past it even though no op record exists.
	recs, err := readJournal(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var ceiling uint64
	for _, r := range recs {
		if r.Kind == recLease && r.Ceiling > ceiling {
			ceiling = r.Ceiling
		}
	}
	if ceiling <= leaseSpan {
		t.Fatalf("recovered ceiling %d, want > %d (the staged extensions)", ceiling, leaseSpan)
	}

	// initLease (the boot path) must leave a durable ceiling even while
	// the writer would otherwise sit on the batch.
	j2, err := openJournal(dir, false, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if err := j2.initLease(ceiling); err != nil {
		t.Fatal(err)
	}
	if !j2.coverSeq(ceiling + 1) {
		t.Fatal("sequence above the recovered base not covered after initLease")
	}
}

// TestLeaseOnlyJournalDoesNotBrickFreshBoot pins the boot-window crash
// path: initLease writes a journal record BEFORE the base snapshot, so a
// crash in that window leaves a lease-bearing journal with no snapshot.
// That state dir must still boot fresh (the no-snapshot refusal guards
// operation records only) — and must stay above the dead incarnation's
// ceiling, which bounds every request ID it could have issued.
func TestLeaseOnlyJournalDoesNotBrickFreshBoot(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir, true)
	j.stageLease(12345)
	j.close() // flushes the staged record

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Listener: lis, Seed: 7, Index: 0, Members: []string{lis.Addr().String()},
		StateDir: dir, Tick: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("fresh boot with a lease-only journal refused: %v", err)
	}
	defer s.Close()
	var seq uint64
	s.peer.DoSync(func() { seq = s.cl.ReqSeq() })
	if seq < 12345 {
		t.Fatalf("request counter %d below the old lease ceiling 12345: a request ID could be re-issued", seq)
	}
}

// TestJournalDiscardFailsParkedReleases pins the Kill semantics: discard
// drops the staged batch (nothing more reaches the disk) and fails every
// parked release instead of flushing it — a simulated crash must lose
// exactly what a real one would.
func TestJournalDiscardFailsParkedReleases(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir, true, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	node := transport.NodeID(3)
	j.appendOp(journalRecord{Node: node, ReqID: reqID(1), Value: []byte("flushed")}, nil)
	if err := j.barrier(); err != nil {
		t.Fatal(err)
	}
	relErr := make(chan error, 1)
	j.appendOp(journalRecord{Node: node, ReqID: reqID(2), Value: []byte("staged")}, func(err error) { relErr <- err })
	j.discard()
	if err := <-relErr; err == nil {
		t.Fatal("parked release of a discarded record reported success")
	}
	recs, err := readJournal(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ReqID != reqID(1) {
		t.Fatalf("discarded journal holds %d records, want only the flushed op", len(recs))
	}
}

// TestJournalSessionRecordsRoundTrip pins the durable-session records:
// a session record carries its ID, a session op record carries the
// session, the per-session sequence and (like every op record) the node
// and wave it was injected at, and all of it survives a reload.
// A journal holding only session records (no ops or outcomes) must not
// trip the fresh-boot refusal — nothing client-visible can be lost.
func TestJournalSessionRecordsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir, true)
	node := transport.NodeID(3)
	j.appendSession("sess-a")
	var got error
	j.appendOp(journalRecord{Node: node, ReqID: reqID(1), Wave: 9, Value: []byte("v1"), Sess: "sess-a", CliSeq: 7}, func(err error) { got = err })
	durably(t, j, "session appendOp", &got)
	syncAppendDone(t, j, reqID(1), wire.CliDone{ReqID: reqID(1), Seq: 7})
	j.close()

	recs, err := readJournal(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	// A lease record may precede (initLease); filter to the content kinds.
	var content []journalRecord
	for _, r := range recs {
		if r.Kind == recSession || r.Kind == recOp || r.Kind == recDone {
			content = append(content, r)
		}
	}
	if len(content) != 3 {
		t.Fatalf("journal holds %d content records, want 3", len(content))
	}
	if content[0].Kind != recSession || content[0].Sess != "sess-a" {
		t.Fatalf("session record = %+v, want Sess sess-a", content[0])
	}
	if op := content[1]; op.Kind != recOp || op.Sess != "sess-a" || op.CliSeq != 7 || op.Node != node || op.Wave != 9 {
		t.Fatalf("op record = %+v, want Sess sess-a CliSeq 7 Node %d Wave 9", op, node)
	}
	if content[2].Kind != recDone || content[2].Done.Seq != 7 {
		t.Fatalf("done record = %+v, want Done.Seq 7", content[2])
	}

	// Session records alone do not hold client-visible state.
	if journalHoldsOps([]journalRecord{{Kind: recSession, Sess: "x"}}) {
		t.Fatal("a session-only journal claims to hold ops; fresh boots would brick")
	}
}
