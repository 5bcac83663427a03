package skueue

import (
	"context"
	"errors"
	"testing"
)

// mustOpen opens a manual-clock client or fails the test.
func mustOpen(t *testing.T, opts ...Option) *Client {
	t.Helper()
	c, err := Open(append([]Option{WithManualClock()}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mustDrain(t *testing.T, c *Client, maxTime int64) {
	t.Helper()
	ok, err := c.Drain(maxTime)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("operations did not drain")
	}
}

func mustSettle(t *testing.T, c *Client, maxTime int64) {
	t.Helper()
	ok, err := c.Settle(maxTime)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("churn did not settle")
	}
}

func TestQuickstartFlow(t *testing.T) {
	c := mustOpen(t, WithProcesses(4), WithSeed(1))
	e1, err := c.EnqueueAsync(0, "a")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c.EnqueueAsync(1, "b")
	if err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 10000)
	if !e1.Completed() || !e2.Completed() {
		t.Fatal("futures not completed after drain")
	}
	d1, _ := c.DequeueAsync(2)
	d2, _ := c.DequeueAsync(2)
	mustDrain(t, c, 10000)
	// Both elements are gone now, so a later dequeue must come up empty.
	d3, _ := c.DequeueAsync(3)
	mustDrain(t, c, 10000)
	got := []any{d1.Value(), d2.Value()}
	// d1 and d2 are by the same process: FIFO order between them.
	if got[0] != "a" && got[0] != "b" {
		t.Fatalf("unexpected first value %v", got[0])
	}
	if got[1] == got[0] {
		t.Fatalf("same element delivered twice")
	}
	if !d3.Empty() {
		t.Fatalf("third dequeue should be empty, got %v", d3.Value())
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestStackMode(t *testing.T) {
	c := mustOpen(t, WithProcesses(2), WithSeed(2), WithMode(Stack))
	if _, err := c.PushAsync(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushAsync(0, 2); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 10000)
	p, err := c.PopAsync(1)
	if err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 10000)
	if p.Value() != 2 {
		t.Fatalf("LIFO: pop got %v, want 2", p.Value())
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFutureLifecycle(t *testing.T) {
	c := mustOpen(t, WithProcesses(2), WithSeed(3))
	f, err := c.EnqueueAsync(0, "x")
	if err != nil {
		t.Fatal(err)
	}
	if f.Completed() || f.Empty() || f.Value() != nil || f.Rounds() != 0 {
		t.Fatalf("fresh future should be pending")
	}
	select {
	case <-f.Done():
		t.Fatal("Done closed before completion")
	default:
	}
	mustDrain(t, c, 10000)
	if !f.Completed() || f.Rounds() <= 0 {
		t.Fatalf("future not resolved: completed=%v rounds=%d", f.Completed(), f.Rounds())
	}
	select {
	case <-f.Done():
	default:
		t.Fatal("Done not closed after completion")
	}
	// Wait on a completed future returns immediately, even with a dead
	// context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Wait(ctx); err != nil {
		t.Fatalf("Wait on completed future: %v", err)
	}
}

func TestJoinLeaveViaClient(t *testing.T) {
	c := mustOpen(t, WithProcesses(3), WithSeed(4))
	admin := c.Admin()
	if err := c.Run(5); err != nil {
		t.Fatal(err)
	}
	p, err := admin.Join(0)
	if err != nil {
		t.Fatal(err)
	}
	mustSettle(t, c, 30000)
	if _, err := c.EnqueueAsync(p, "from-joiner"); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 10000)
	if err := admin.Leave(1); err != nil {
		t.Fatal(err)
	}
	mustSettle(t, c, 60000)
	d, err := c.DequeueAsync(0)
	if err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 30000)
	if d.Value() != "from-joiner" {
		t.Fatalf("element lost across churn: %v", d.Value())
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestValuesSurviveDHTTravel(t *testing.T) {
	c := mustOpen(t, WithProcesses(6), WithSeed(5))
	want := map[any]bool{}
	for i := 0; i < 20; i++ {
		v := i * 100
		if _, err := c.EnqueueAsync(i%6, v); err != nil {
			t.Fatal(err)
		}
		want[v] = true
	}
	mustDrain(t, c, 20000)
	if c.Stored() != 20 {
		t.Fatalf("stored %d, want 20", c.Stored())
	}
	var futures []*Future
	for i := 0; i < 20; i++ {
		f, err := c.DequeueAsync(i % 6)
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}
	mustDrain(t, c, 20000)
	for _, f := range futures {
		if f.Empty() {
			t.Fatalf("lost element")
		}
		if !want[f.Value()] {
			t.Fatalf("unknown or duplicate value %v", f.Value())
		}
		delete(want, f.Value())
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(WithProcesses(0)); err == nil {
		t.Fatal("zero processes should fail")
	}
	if _, err := Open(WithAutopilotQuantum(0)); err == nil {
		t.Fatal("zero quantum should fail")
	}
}

func TestTypedProcessErrors(t *testing.T) {
	c := mustOpen(t, WithProcesses(2), WithSeed(6))
	if _, err := c.EnqueueAsync(9, nil); !errors.Is(err, ErrNoSuchProcess) {
		t.Fatalf("out-of-range process: got %v, want ErrNoSuchProcess", err)
	}
	// -1 is AnyProcess; any other negative index is invalid.
	if _, err := c.DequeueAsync(-2); !errors.Is(err, ErrNoSuchProcess) {
		t.Fatalf("negative process: got %v, want ErrNoSuchProcess", err)
	}
	if _, err := c.Admin().Join(7); !errors.Is(err, ErrNoSuchProcess) {
		t.Fatalf("bad contact: got %v, want ErrNoSuchProcess", err)
	}
	if err := c.Admin().Leave(1); err != nil {
		t.Fatal(err)
	}
	mustSettle(t, c, 60000)
	if _, err := c.EnqueueAsync(1, "x"); !errors.Is(err, ErrProcessLeft) {
		t.Fatalf("departed process: got %v, want ErrProcessLeft", err)
	}
	if err := c.Admin().Leave(1); !errors.Is(err, ErrProcessLeft) {
		t.Fatalf("double leave: got %v, want ErrProcessLeft", err)
	}
}

func TestLeaveWhileJoining(t *testing.T) {
	c := mustOpen(t, WithProcesses(3), WithSeed(14))
	p, err := c.Admin().Join(0)
	if err != nil {
		t.Fatal(err)
	}
	// Without settling, the new process is still integrating.
	if err := c.Admin().Leave(p); !errors.Is(err, ErrStillJoining) {
		t.Fatalf("leave while joining: got %v, want ErrStillJoining", err)
	}
	mustSettle(t, c, 60000)
	if err := c.Admin().Leave(p); err != nil {
		t.Fatalf("leave after settle: %v", err)
	}
	mustSettle(t, c, 60000)
}

func TestAsyncSchedulerClient(t *testing.T) {
	c := mustOpen(t, WithProcesses(3), WithSeed(7), WithAsync())
	if _, err := c.EnqueueAsync(0, "v"); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 50000)
	d, err := c.DequeueAsync(1)
	if err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 50000)
	if d.Value() != "v" {
		t.Fatalf("got %v", d.Value())
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndMetrics(t *testing.T) {
	c := mustOpen(t, WithProcesses(3), WithSeed(8))
	for i := 0; i < 10; i++ {
		if _, err := c.EnqueueAsync(i%3, i); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, c, 20000)
	st := c.Stats()
	if st.Total != 10 || st.Enqueues != 10 {
		t.Fatalf("stats wrong: %+v", st)
	}
	m := c.Metrics()
	if m.WavesAssigned == 0 {
		t.Fatalf("no waves recorded")
	}
	if m.RouteMsgs < 10 || m.MaxRouteHops < 1 || float64(m.MaxRouteHops) < m.AvgRouteHops || int64(m.MaxRouteHops) > m.RouteHops {
		t.Fatalf("route counters inconsistent: %d routes, %d hops, mean %.1f, max %d", m.RouteMsgs, m.RouteHops, m.AvgRouteHops, m.MaxRouteHops)
	}
	if m.MaxWavesInFlight < 1 || m.PipelinedFires > 0 && m.MaxWavesInFlight < 2 {
		t.Fatalf("pipeline counters inconsistent: deepest %d waves in flight, %d pipelined fires", m.MaxWavesInFlight, m.PipelinedFires)
	}
	if c.Now() == 0 {
		t.Fatalf("time did not advance")
	}
	if c.NumProcesses() != 3 {
		t.Fatalf("process count wrong")
	}
	if c.Mode() != Queue {
		t.Fatalf("mode wrong")
	}
}

// TestEarlyCompletionInsideInject pins the one completion that fires
// inside an inject call: a locally combined stack pair completes
// synchronously inside the DequeueAsync (pop) injection. The client
// registers the pop's future under its reserved ID before injecting, so
// both futures are resolved when the call returns and nothing is left
// registered.
func TestEarlyCompletionInsideInject(t *testing.T) {
	c := mustOpen(t, WithProcesses(2), WithSeed(9), WithMode(Stack))
	before := c.Metrics().CombinedOps
	push, err := c.PushAsync(0, "ephemeral")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := c.PopAsync(0)
	if err != nil {
		t.Fatal(err)
	}
	// Local combining (§VI) answers the pair on the spot, with zero
	// protocol rounds — both futures must already be resolved.
	if !push.Completed() || !pop.Completed() {
		t.Fatalf("combined pair should complete inside the inject call (push=%v pop=%v)",
			push.Completed(), pop.Completed())
	}
	if pop.Empty() {
		t.Fatal("combined pop reported ⊥")
	}
	if pop.Value() != "ephemeral" {
		t.Fatalf("combined pop value = %v, want ephemeral", pop.Value())
	}
	if got := c.Metrics().CombinedOps - before; got != 2 {
		t.Fatalf("combined ops delta = %d, want 2", got)
	}
	c.mu.Lock()
	futuresLeft := len(c.futures)
	c.mu.Unlock()
	if futuresLeft != 0 {
		t.Fatalf("%d futures left registered after completion", futuresLeft)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestEarlyCompletionRepeated exercises the in-inject completion many
// times, interleaved with network-travelling operations, to make sure a
// completion is never misattributed.
func TestEarlyCompletionRepeated(t *testing.T) {
	c := mustOpen(t, WithProcesses(3), WithSeed(10), WithMode(Stack))
	for i := 0; i < 50; i++ {
		proc := i % 3
		push, err := c.PushAsync(proc, i)
		if err != nil {
			t.Fatal(err)
		}
		pop, err := c.PopAsync(proc)
		if err != nil {
			t.Fatal(err)
		}
		if !push.Completed() || !pop.Completed() {
			t.Fatalf("iteration %d: combined pair did not complete synchronously", i)
		}
		if pop.Value() != i {
			t.Fatalf("iteration %d: pop value %v", i, pop.Value())
		}
		if i%5 == 0 { // let some uncombined traffic travel the network too
			if _, err := c.PushAsync((proc+1)%3, i*1000); err != nil {
				t.Fatal(err)
			}
			if err := c.Run(3); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustDrain(t, c, 50000)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestManualClockGating(t *testing.T) {
	c, err := Open(WithProcesses(2), WithSeed(11)) // autopilot mode
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Step(); !errors.Is(err, ErrAutoClock) {
		t.Fatalf("Step on autopilot: got %v, want ErrAutoClock", err)
	}
	if err := c.Run(5); !errors.Is(err, ErrAutoClock) {
		t.Fatalf("Run on autopilot: got %v, want ErrAutoClock", err)
	}
	if _, err := c.Drain(100); !errors.Is(err, ErrAutoClock) {
		t.Fatalf("Drain on autopilot: got %v, want ErrAutoClock", err)
	}
	if _, err := c.Settle(100); !errors.Is(err, ErrAutoClock) {
		t.Fatalf("Settle on autopilot: got %v, want ErrAutoClock", err)
	}
}

func TestClosedClient(t *testing.T) {
	c, err := Open(WithProcesses(2), WithSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: got %v, want ErrClosed", err)
	}
	ctx := context.Background()
	if err := c.Enqueue(ctx, "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: got %v, want ErrClosed", err)
	}
	if _, _, err := c.Dequeue(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("dequeue after close: got %v, want ErrClosed", err)
	}
	if _, err := c.Admin().Join(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("join after close: got %v, want ErrClosed", err)
	}
	if err := c.Admin().Settle(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("settle after close: got %v, want ErrClosed", err)
	}
}
