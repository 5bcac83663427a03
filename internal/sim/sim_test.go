package sim

import (
	"testing"

	"skueue/internal/transport"
)

// echoNode counts messages and can ping-pong.
type echoNode struct {
	got      []any
	froms    []NodeID
	initRuns int
	timeouts int
	onMsg    func(ctx *Context, from NodeID, payload any)
	onTick   func(ctx *Context)
}

func (n *echoNode) OnInit(ctx *Context) { n.initRuns++ }
func (n *echoNode) OnMessage(ctx *Context, from NodeID, payload any) {
	n.got = append(n.got, payload)
	n.froms = append(n.froms, from)
	if n.onMsg != nil {
		n.onMsg(ctx, from, payload)
	}
}
func (n *echoNode) OnTimeout(ctx *Context) {
	n.timeouts++
	if n.onTick != nil {
		n.onTick(ctx)
	}
}

func TestSyncDeliveryNextRound(t *testing.T) {
	e := New(Config{Seed: 1})
	a := &echoNode{}
	b := &echoNode{}
	ida := e.Spawn(a)
	idb := e.Spawn(b)
	sent := false
	a.onTick = func(ctx *Context) {
		if !sent {
			ctx.Send(idb, "hello")
			sent = true
		}
	}
	_ = ida
	e.Step() // round 1: a sends during timeout
	if len(b.got) != 0 {
		t.Fatalf("message delivered in sending round")
	}
	e.Step() // round 2: delivery
	if len(b.got) != 1 || b.got[0] != "hello" || b.froms[0] != ida {
		t.Fatalf("message not delivered in next round: %v", b.got)
	}
}

func TestSyncTimeoutOncePerRound(t *testing.T) {
	e := New(Config{Seed: 1})
	nodes := make([]*echoNode, 5)
	for i := range nodes {
		nodes[i] = &echoNode{}
		e.Spawn(nodes[i])
	}
	e.Run(10)
	for i, n := range nodes {
		if n.timeouts != 10 {
			t.Errorf("node %d ran %d timeouts, want 10", i, n.timeouts)
		}
		if n.initRuns != 1 {
			t.Errorf("node %d init ran %d times", i, n.initRuns)
		}
	}
}

func TestNoLossNoDuplication(t *testing.T) {
	for _, async := range []bool{false, true} {
		e := New(Config{Seed: 7, Async: async, MaxDelay: 5})
		recv := 0
		sink := &echoNode{}
		sink.onMsg = func(ctx *Context, from NodeID, payload any) { recv++ }
		idSink := e.Spawn(sink)
		src := &echoNode{}
		count := 0
		src.onTick = func(ctx *Context) {
			if count < 100 {
				ctx.Send(idSink, count)
				count++
			}
		}
		e.Spawn(src)
		e.Run(2000)
		if e.InFlight() != 0 {
			t.Fatalf("async=%v: %d messages still in flight", async, e.InFlight())
		}
		if recv != count {
			t.Fatalf("async=%v: sent %d received %d", async, count, recv)
		}
		st := e.Stats()
		if st.MessagesSent != st.MessagesDelivered {
			t.Fatalf("async=%v: accounting mismatch %+v", async, st)
		}
	}
}

func TestAsyncNonFIFO(t *testing.T) {
	// With random delays, some pair of messages must arrive out of order.
	e := New(Config{Seed: 3, Async: true, MaxDelay: 10})
	sink := &echoNode{}
	idSink := e.Spawn(sink)
	src := &echoNode{}
	next := 0
	src.onTick = func(ctx *Context) {
		if next < 200 {
			ctx.Send(idSink, next)
			next++
		}
	}
	e.Spawn(src)
	e.Run(5000)
	if len(sink.got) != 200 {
		t.Fatalf("got %d messages, want 200", len(sink.got))
	}
	reordered := false
	for i := 1; i < len(sink.got); i++ {
		if sink.got[i].(int) < sink.got[i-1].(int) {
			reordered = true
			break
		}
	}
	if !reordered {
		t.Errorf("async scheduler delivered 200 messages in exact FIFO order; non-FIFO not exercised")
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []any {
		e := New(Config{Seed: seed, Async: true, MaxDelay: 6})
		sink := &echoNode{}
		idSink := e.Spawn(sink)
		for s := 0; s < 3; s++ {
			src := &echoNode{}
			tag := s * 1000
			n := 0
			src.onTick = func(ctx *Context) {
				if n < 20 {
					ctx.Send(idSink, tag+n)
					n++
				}
			}
			e.Spawn(src)
		}
		e.Run(1000)
		return sink.got
	}
	a, b := run(11), run(11)
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(12)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Errorf("different seeds produced identical delivery order")
	}
}

func TestSpawnMidRun(t *testing.T) {
	e := New(Config{Seed: 2})
	parent := &echoNode{}
	var child *echoNode
	var childID NodeID = None
	spawned := false
	parent.onTick = func(ctx *Context) {
		if !spawned {
			child = &echoNode{}
			childID = ctx.Spawn(child)
			ctx.Send(childID, "welcome")
			spawned = true
		}
	}
	e.Spawn(parent)
	e.Run(3)
	if child == nil || child.initRuns != 1 {
		t.Fatalf("child not initialized")
	}
	if len(child.got) != 1 {
		t.Fatalf("child did not receive welcome: %v", child.got)
	}
	if child.timeouts == 0 {
		t.Errorf("child never ran a timeout")
	}
}

func TestDeactivatePanicsOnDelivery(t *testing.T) {
	e := New(Config{Seed: 4})
	target := &echoNode{}
	idT := e.Spawn(target)
	src := &echoNode{}
	step := 0
	src.onTick = func(ctx *Context) {
		switch step {
		case 0:
			ctx.Deactivate(idT)
		case 1:
			ctx.Send(idT, "boom")
		}
		step++
	}
	e.Spawn(src)
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on send to deactivated node")
		}
	}()
	e.Run(5)
}

func TestStopTimeouts(t *testing.T) {
	e := New(Config{Seed: 5})
	n := &echoNode{}
	id := e.Spawn(n)
	e.Run(3)
	before := n.timeouts
	stopper := &echoNode{}
	stopper.onTick = func(ctx *Context) { ctx.StopTimeouts(id) }
	e.Spawn(stopper)
	e.Run(5)
	if n.timeouts > before+1 {
		t.Errorf("timeouts kept firing after StopTimeouts: %d -> %d", before, n.timeouts)
	}
	// Node must still receive messages.
	sender := &echoNode{}
	sender.onTick = func(ctx *Context) { ctx.Send(id, "still alive") }
	e.Spawn(sender)
	got := len(n.got)
	e.Run(3)
	if len(n.got) <= got {
		t.Errorf("passive node stopped receiving messages")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(Config{Seed: 6})
	n := &echoNode{}
	e.Spawn(n)
	ok := e.RunUntil(func() bool { return n.timeouts >= 5 }, 100)
	if !ok {
		t.Fatalf("condition not met")
	}
	if n.timeouts < 5 || n.timeouts > 6 {
		t.Errorf("overran condition: %d timeouts", n.timeouts)
	}
	ok = e.RunUntil(func() bool { return false }, 10)
	if ok {
		t.Errorf("RunUntil reported success for impossible condition")
	}
}

func TestAsyncTimeoutsRecur(t *testing.T) {
	e := New(Config{Seed: 8, Async: true, TimeoutEvery: 3})
	n := &echoNode{}
	e.Spawn(n)
	e.Run(100)
	if n.timeouts < 20 {
		t.Errorf("expected ~33 timeouts in 100 time units, got %d", n.timeouts)
	}
}

func TestSelfSend(t *testing.T) {
	e := New(Config{Seed: 9})
	n := &echoNode{}
	var id NodeID
	sent := false
	n.onTick = func(ctx *Context) {
		if !sent {
			ctx.Send(ctx.Self(), "me")
			sent = true
		}
	}
	id = e.Spawn(n)
	_ = id
	e.Run(3)
	if len(n.got) != 1 || n.got[0] != "me" {
		t.Errorf("self-send failed: %v", n.got)
	}
}

func TestContextIdentity(t *testing.T) {
	e := New(Config{Seed: 10})
	var seen []NodeID
	for i := 0; i < 3; i++ {
		n := &echoNode{}
		n.onTick = func(ctx *Context) { seen = append(seen, ctx.Self()) }
		e.Spawn(n)
	}
	e.Step()
	if len(seen) != 3 || seen[0] == seen[1] || seen[1] == seen[2] {
		t.Errorf("Self() identities wrong: %v", seen)
	}
}

func TestNowAdvances(t *testing.T) {
	e := New(Config{Seed: 11})
	if e.Now() != 0 {
		t.Fatalf("initial time not 0")
	}
	e.Run(7)
	if e.Now() != 7 {
		t.Errorf("Now() = %d after 7 rounds", e.Now())
	}
}

func TestShuffledTimeoutOrderDiffers(t *testing.T) {
	order := func(seed int64) []NodeID {
		e := New(Config{Seed: seed, ShuffleTimeouts: true})
		var got []NodeID
		for i := 0; i < 16; i++ {
			n := &echoNode{}
			n.onTick = func(ctx *Context) { got = append(got, ctx.Self()) }
			e.Spawn(n)
		}
		e.Step()
		return got
	}
	a, b := order(1), order(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Errorf("shuffled timeout order identical across seeds")
	}
}

func TestInjectFromOutside(t *testing.T) {
	e := New(Config{Seed: 12})
	n := &echoNode{}
	id := e.Spawn(n)
	e.Inject(None, id, "external")
	e.Run(2)
	if len(n.got) != 1 || n.got[0] != "external" {
		t.Fatalf("injected message not delivered: %v", n.got)
	}
}

func TestActiveAndHandlerAccessors(t *testing.T) {
	e := New(Config{Seed: 13})
	n := &echoNode{}
	id := e.Spawn(n)
	if !e.Active(id) || e.Active(NodeID(99)) || e.Active(None) {
		t.Fatalf("Active() wrong")
	}
	if e.Handler(id) != n {
		t.Fatalf("Handler() wrong")
	}
	if e.NumNodes() != 1 {
		t.Fatalf("NumNodes() wrong")
	}
}

func TestStatsAccounting(t *testing.T) {
	e := New(Config{Seed: 14})
	sink := &echoNode{}
	idSink := e.Spawn(sink)
	src := &echoNode{}
	sent := 0
	src.onTick = func(ctx *Context) {
		if sent < 5 {
			ctx.Send(idSink, sent)
			sent++
		}
	}
	e.Spawn(src)
	e.Run(10)
	st := e.Stats()
	if st.MessagesSent != 5 || st.MessagesDelivered != 5 || st.Spawned != 2 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.TimeoutsRun == 0 {
		t.Fatalf("timeouts not counted")
	}
}

func TestAsyncRunUntilStopsOnEmpty(t *testing.T) {
	// An async engine with no nodes has no events; RunUntil must not spin.
	e := New(Config{Seed: 15, Async: true})
	if e.RunUntil(func() bool { return false }, 1000) {
		t.Fatalf("impossible condition reported met")
	}
}

// readyNode is an echoNode that also implements transport.ReadyHandler.
type readyNode struct {
	echoNode
	readyCalls int
}

func (n *readyNode) OnReady(ctx *Context) { n.readyCalls++ }

// TestEngineNeverCallsOnReady: the readiness hook belongs to backends whose
// clock is not the message delay. A simulated round IS the delay of a
// message between processes (one within a process follows its callback in
// the same round), and its schedule is reproducible from the seed, so
// neither engine may call it — not at spawn, not on delivery, not around a
// TIMEOUT.
func TestEngineNeverCallsOnReady(t *testing.T) {
	for _, async := range []bool{false, true} {
		e := New(Config{Seed: 11, Async: async, MaxDelay: 4})
		a, b := &readyNode{}, &readyNode{}
		var _ transport.ReadyHandler = a
		ida, idb := e.Spawn(a), e.Spawn(b)
		a.onTick = func(ctx *Context) { ctx.Send(idb, "ping") }
		b.onMsg = func(ctx *Context, from NodeID, payload any) { ctx.Send(ida, "pong") }
		e.Inject(ida, idb, "outside")
		e.Run(200)
		if len(a.got) == 0 || len(b.got) == 0 || a.timeouts == 0 {
			t.Fatalf("async=%v: the run did nothing: %d/%d messages, %d timeouts", async, len(a.got), len(b.got), a.timeouts)
		}
		if a.readyCalls+b.readyCalls != 0 {
			t.Fatalf("async=%v: the simulator called OnReady %d times", async, a.readyCalls+b.readyCalls)
		}
	}
}
