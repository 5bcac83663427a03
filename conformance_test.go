package skueue_test

// Mode-conformance suite: one table of lifecycle tests run identically
// against all three ordering disciplines (queue, stack, heap). Each row
// exercises behavior every discipline must share — the shape of a full
// enqueue/dequeue lifecycle and empty-structure ⊥ semantics, embedded and
// again over a loopback TCP cluster at a coarse tick, and exactly-once
// delivery across a kill -9 restart of a durable cluster member — while
// the expected dequeue order is the only per-mode input.
// A new discipline behind the seam (internal/core/discipline.go) joins
// the table by adding one entry.

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"skueue"
	"skueue/internal/core"
	"skueue/internal/server"
)

// confMode is one discipline under test.
type confMode struct {
	name   string
	opts   []skueue.Option // embedded-client configuration
	server string          // skueue-server -mode value
	levels int             // priority levels (heap only)
	// order permutes enqueue indices 0..n-1 into the dequeue order a
	// strictly sequential client must observe.
	order func(n int) []int
}

func confModes() []confMode {
	const levels = 3
	return []confMode{
		{
			name:   "queue",
			opts:   []skueue.Option{skueue.WithMode(skueue.Queue)},
			server: "queue",
			order: func(n int) []int {
				out := make([]int, n)
				for i := range out {
					out[i] = i
				}
				return out
			},
		},
		{
			name:   "stack",
			opts:   []skueue.Option{skueue.WithMode(skueue.Stack)},
			server: "stack",
			order: func(n int) []int {
				out := make([]int, n)
				for i := range out {
					out[i] = n - 1 - i
				}
				return out
			},
		},
		{
			name:   "heap",
			opts:   []skueue.Option{skueue.WithHeap(levels)},
			server: "heap",
			levels: levels,
			order: func(n int) []int {
				out := make([]int, n)
				for i := range out {
					out[i] = i
				}
				// Lowest level first, FIFO within a level.
				sort.SliceStable(out, func(a, b int) bool {
					return confPri(out[a], levels) < confPri(out[b], levels)
				})
				return out
			},
		},
	}
}

// confOpen opens the client a lifecycle row drives: embedded, or remote
// against a loopback cluster.
type confOpen func(t *testing.T, m confMode, procs int, seed int64) *skueue.Client

// confWithin fails the row when its ops blocking operations took more
// than perOp each on average since start; perOp 0 (the embedded rows,
// which run in simulated time) checks nothing.
func confWithin(t *testing.T, start time.Time, ops int, perOp time.Duration) {
	t.Helper()
	if took := time.Since(start); perOp > 0 && took > time.Duration(ops)*perOp {
		t.Fatalf("%d blocking operations took %v, over %v each: the discipline is paced by the clock", ops, took, perOp)
	}
}

// confPri assigns enqueue index i its priority level (heap rows spread
// elements over every level; other modes ignore it).
func confPri(i, levels int) int32 {
	if levels == 0 {
		return 0
	}
	return int32(i % levels)
}

// confEnqueue and confDequeue adapt the per-mode operation flavour: the
// heap's priority API against heap clients, the plain API elsewhere.
// Everything else in the suite is mode-independent.
func confEnqueue(ctx context.Context, c *skueue.Client, pri int32, v any) error {
	if c.HeapLevels() > 0 {
		return c.EnqueuePri(ctx, pri, v)
	}
	return c.Enqueue(ctx, v)
}

func confDequeue(ctx context.Context, c *skueue.Client) (any, bool, error) {
	if c.HeapLevels() > 0 {
		return c.DequeueMin(ctx)
	}
	return c.Dequeue(ctx)
}

func confEnqueueAsync(c *skueue.Client, pri int32, v any) (*skueue.Future, error) {
	if c.HeapLevels() > 0 {
		return c.EnqueuePriAsync(skueue.AnyProcess, pri, v)
	}
	return c.EnqueueAsync(skueue.AnyProcess, v)
}

// confEmbedded opens the in-process (simulator-backed) client the
// lifecycle rows run against by default.
func confEmbedded(t *testing.T, m confMode, procs int, seed int64) *skueue.Client {
	t.Helper()
	c, err := skueue.Open(append([]skueue.Option{
		skueue.WithProcesses(procs), skueue.WithSeed(seed),
	}, m.opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// confTCPTick is the TIMEOUT cadence of the over-TCP rows: coarse enough
// that a wave paced by the clock — five ticks an operation on three
// members — blows confTCPBudget, so these rows hold the readiness-driven
// firing path to every discipline's semantics: the stack's put-ack
// ungating stage 4, the heap's prefix-per-wave drain leaving own work
// behind for the next wave.
const confTCPTick = 50 * time.Millisecond

// confTCPBudget is what one blocking operation may cost on average over a
// row: readiness-paced it is about one tick.
const confTCPBudget = 3 * confTCPTick

// confListeners pre-binds n loopback listeners, so every member knows
// the full address list before any of them starts.
func confListeners(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lis := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lis[i], addrs[i] = l, l.Addr().String()
	}
	return lis, addrs
}

// confOverTCP boots a 3-member loopback cluster in the discipline's mode
// and opens a remote client at a non-seed member (procs and seed belong
// to the embedded rows).
func confOverTCP(t *testing.T, m confMode, _ int, _ int64) *skueue.Client {
	t.Helper()
	lis, addrs := confListeners(t, 3)
	for i := range lis {
		s, err := server.New(server.Config{
			Listener: lis[i], Seed: 33, Index: i, Members: addrs,
			Mode: m.server, HeapLevels: m.levels, Tick: confTCPTick,
		})
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		t.Cleanup(s.Close)
	}
	c, err := skueue.Open(skueue.WithRemote(addrs[1]))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestModeConformance runs every lifecycle row against every discipline.
func TestModeConformance(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, m confMode)
	}{
		{"Lifecycle", func(t *testing.T, m confMode) { confLifecycle(t, m, confEmbedded, 0) }},
		{"EmptyStructure", func(t *testing.T, m confMode) { confEmptyStructure(t, m, confEmbedded, 0) }},
		{"LifecycleOverTCP", func(t *testing.T, m confMode) { confLifecycle(t, m, confOverTCP, confTCPBudget) }},
		{"EmptyStructureOverTCP", func(t *testing.T, m confMode) { confEmptyStructure(t, m, confOverTCP, confTCPBudget) }},
		{"KillRestartExactlyOnce", confKillRestart},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, m := range confModes() {
				t.Run(m.name, func(t *testing.T) { row.run(t, m) })
			}
		})
	}
}

// confLifecycle: a strictly sequential client enqueues n values and
// dequeues them all; the observed order must be exactly the discipline's
// (FIFO, LIFO, or priority-then-FIFO), the structure must be empty
// afterwards, and the full history must pass the discipline's checker.
func confLifecycle(t *testing.T, m confMode, open confOpen, perOp time.Duration) {
	c := open(t, m, 4, 21)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const n = 12
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := confEnqueue(ctx, c, confPri(i, m.levels), fmt.Sprintf("v-%d", i)); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	want := m.order(n)
	for k := 0; k < n; k++ {
		v, ok, err := confDequeue(ctx, c)
		if err != nil {
			t.Fatalf("dequeue %d: %v", k, err)
		}
		if !ok {
			t.Fatalf("dequeue %d: structure empty with %d elements outstanding", k, n-k)
		}
		if exp := fmt.Sprintf("v-%d", want[k]); v != exp {
			t.Fatalf("dequeue %d: got %v, want %v (discipline order %v)", k, v, exp, want)
		}
	}
	if _, ok, err := confDequeue(ctx, c); err != nil || ok {
		t.Fatalf("dequeue on drained structure: ok=%v err=%v, want ⊥", ok, err)
	}
	confWithin(t, start, 2*n+1, perOp)
	if err := c.Check(); err != nil {
		t.Fatalf("history check: %v", err)
	}
}

// confEmptyStructure: ⊥ from a fresh structure, a single element
// round-trips, ⊥ again after it is taken.
func confEmptyStructure(t *testing.T, m confMode, open confOpen, perOp time.Duration) {
	c := open(t, m, 2, 22)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	start := time.Now()
	if _, ok, err := confDequeue(ctx, c); err != nil || ok {
		t.Fatalf("dequeue on fresh structure: ok=%v err=%v, want ⊥", ok, err)
	}
	if err := confEnqueue(ctx, c, 0, "solo"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := confDequeue(ctx, c)
	if err != nil || !ok || v != "solo" {
		t.Fatalf("dequeue: got (%v, %v, %v), want (solo, true, nil)", v, ok, err)
	}
	if _, ok, err := confDequeue(ctx, c); err != nil || ok {
		t.Fatalf("dequeue after drain: ok=%v err=%v, want ⊥", ok, err)
	}
	confWithin(t, start, 4, perOp)
	if err := c.Check(); err != nil {
		t.Fatalf("history check: %v", err)
	}
}

// confKillRestart: exactly-once across a fail-stop crash, identically in
// every mode. A 3-member durable cluster takes traffic, one member is
// killed without warning (kill -9 semantics: no final snapshot, staged
// journal batches lost), operations issued while it is down wedge
// mid-protocol, and the member restarts from its snapshot on a new
// address. Every enqueued value must then come out exactly once and the
// merged history must pass the discipline's checker.
func confKillRestart(t *testing.T, m confMode) {
	if testing.Short() {
		t.Skip("boots a durable TCP cluster per mode")
	}
	lis, addrs := confListeners(t, 3)
	base := t.TempDir()
	srvs := make([]*server.Server, 3)
	dirs := make([]string, 3)
	for i := range srvs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("m%d", i))
		s, err := server.New(server.Config{
			Listener: lis[i], Seed: 33, Index: i, Members: addrs,
			Mode: m.server, HeapLevels: m.levels,
			Tick:          500 * time.Microsecond,
			StateDir:      dirs[i],
			SnapshotEvery: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		srvs[i] = s
		t.Cleanup(s.Close)
	}

	c, err := skueue.Open(skueue.WithRemote(addrs[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	enqueued := make(map[string]bool)
	dequeued := make(map[string]bool)
	takeOne := func(mustHave bool) bool {
		t.Helper()
		v, ok, err := confDequeue(ctx, c)
		if err != nil {
			t.Fatalf("dequeue: %v", err)
		}
		if !ok {
			if mustHave {
				t.Fatalf("structure empty with %d values unaccounted", len(enqueued)-len(dequeued))
			}
			return false
		}
		s := v.(string)
		if dequeued[s] {
			t.Fatalf("value %q dequeued twice", s)
		}
		if !enqueued[s] {
			t.Fatalf("value %q dequeued but never enqueued", s)
		}
		dequeued[s] = true
		return true
	}

	// Phase 1: live traffic across every member's fragment.
	for i := 0; i < 12; i++ {
		v := fmt.Sprintf("pre-%d", i)
		if err := confEnqueue(ctx, c, confPri(i, m.levels), v); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		enqueued[v] = true
	}
	for i := 0; i < 4; i++ {
		takeOne(true)
	}
	time.Sleep(500 * time.Millisecond) // let snapshots cover the traffic

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
	srvs[victim].Kill()

	// Phase 2: operations wedged against the dead member's fragment.
	var futures []*skueue.Future
	for i := 0; i < 6; i++ {
		v := fmt.Sprintf("down-%d", i)
		f, err := confEnqueueAsync(c, confPri(i, m.levels), v)
		if err != nil {
			t.Fatalf("enqueue while member down: %v", err)
		}
		enqueued[v] = true
		futures = append(futures, f)
	}
	time.Sleep(300 * time.Millisecond)

	restarted, err := server.New(server.Config{
		Addr: "127.0.0.1:0", Join: addrs[0],
		StateDir:      dirs[victim],
		SnapshotEvery: 50 * time.Millisecond,
		Tick:          500 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("restarting member %d: %v", victim, err)
	}
	t.Cleanup(restarted.Close)

	for i, f := range futures {
		if err := f.Wait(ctx); err != nil {
			t.Fatalf("stalled enqueue %d never completed after restart: %v", i, err)
		}
		if err := f.Err(); err != nil {
			t.Fatalf("stalled enqueue %d failed: %v", i, err)
		}
	}

	// Two more kills of the same member, for what standing adds to an
	// image: after 40 idle ticks (every node of it idle on disk), and with
	// enqueues in flight through a session pinned to it (for the stack, whose
	// stage-4 wait holds declines back, usually with an image cut between a
	// serve and the decline answering it; internal/core makes that cut for
	// all three). Each enqueue resolves across the restarts.
	restart := func() *server.Server {
		s, err := server.New(server.Config{
			Addr: "127.0.0.1:0", Join: addrs[0],
			StateDir:      dirs[victim],
			SnapshotEvery: time.Hour, // the image on disk is the one cut below
			Tick:          500 * time.Microsecond,
		})
		if err != nil {
			t.Fatalf("restarting member %d again: %v", victim, err)
		}
		t.Cleanup(s.Close)
		return s
	}
	cv, err := skueue.Open(
		skueue.WithRemote(restarted.Addr()),
		skueue.WithSession("standing-"+m.name),
		skueue.WithDialTimeout(2*time.Second),
		skueue.WithReconnect(200, 50*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cv.Close()
	var standing []*skueue.Future
	push := func() {
		t.Helper()
		v := fmt.Sprintf("standing-%d", len(standing))
		f, err := confEnqueueAsync(cv, confPri(len(standing), m.levels), v)
		if err != nil {
			t.Fatalf("enqueue %s: %v", v, err)
		}
		enqueued[v] = true
		standing = append(standing, f)
	}
	settle := func() {
		t.Helper()
		for i, f := range standing {
			if err := f.Wait(ctx); err != nil {
				t.Fatalf("enqueue standing-%d did not survive the restart: %v", i, err)
			}
		}
	}
	snapshot := func(s *server.Server) core.SnapshotStats {
		for s.SnapshotNow() != nil {
			if ctx.Err() != nil {
				t.Fatal("no snapshot")
			}
		}
		_, stats := s.SnapshotInfo()
		return stats
	}
	push()
	settle()
	time.Sleep(20 * time.Millisecond)
	if stats := snapshot(restarted); stats.IdleNodes != 3 || stats.ServedNodes != 0 {
		t.Fatalf("image after 40 idle ticks: %d nodes idle, %d served; want all three idle", stats.IdleNodes, stats.ServedNodes)
	}
	restarted.Kill()
	restarted = restart()
	push()
	settle()
	caught := false
	for deadline := time.Now().Add(3 * time.Second); !caught && time.Now().Before(deadline); {
		for i := 0; i < 4; i++ {
			push()
		}
		for attempt := 0; attempt < 8 && !caught; attempt++ {
			if restarted.SnapshotNow() == nil {
				_, stats := restarted.SnapshotInfo()
				caught = stats.ServedNodes > 0
			}
		}
	}
	t.Logf("killing with enqueues in flight; image cut between a serve and its decline: %v", caught)
	restarted.Kill()
	restarted = restart()
	settle()

	// Exactly-once: everything still in the structure comes out once,
	// then ⊥, with the full enqueued set accounted for.
	for takeOne(len(dequeued) < len(enqueued)) {
	}
	if len(dequeued) != len(enqueued) {
		t.Fatalf("accounting: %d enqueued, %d dequeued", len(enqueued), len(dequeued))
	}
	if err := c.Check(); err != nil {
		t.Fatalf("history check after restart: %v", err)
	}
}
