package tcp

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skueue/internal/transport"
	"skueue/internal/wire"
)

// newTestPeer builds an unstarted, unconnected peer; runner-confined
// methods may be called on it directly.
func newTestPeer(tick time.Duration) *Peer {
	return New(Options{Index: 0, Addr: "127.0.0.1:0", Pids: []int32{0}, Seed: 1, Tick: tick})
}

// selfStopNode stops its own timeouts inside its first OnTimeout, the way
// a departing protocol node does.
type selfStopNode struct{ echoNode }

func (n *selfStopNode) OnTimeout(ctx *transport.Context) {
	n.timeouts.Add(1)
	ctx.StopTimeouts(ctx.Self())
}

// TestOrderHoldsLiveNodesOnly: a long-lived member spawns a leave
// replacement per adjacent leave and every one of them eventually stops
// its timeouts or is deactivated. The tick and readiness passes must walk
// the live nodes, not everything the member ever hosted — and a node that
// removes itself mid-pass must not make the pass skip or repeat another.
func TestOrderHoldsLiveNodesOnly(t *testing.T) {
	p := newTestPeer(time.Hour)
	live := []*echoNode{{}, {}, {}}
	for i, n := range live {
		p.Register(transport.NodeID(i), n)
	}
	var gone []transport.NodeID
	for i := 0; i < 1000; i++ {
		gone = append(gone, p.Spawn(&echoNode{}))
	}
	if len(p.order) != len(live)+len(gone) {
		t.Fatalf("order holds %d nodes, want %d", len(p.order), len(live)+len(gone))
	}
	for i, id := range gone {
		if i%2 == 0 {
			p.Deactivate(id)
		} else {
			p.StopTimeouts(id)
		}
	}
	if len(p.order) != len(live) {
		t.Fatalf("order holds %d nodes after 1000 departures, want the %d live ones", len(p.order), len(live))
	}
	// Both kinds stay in the node table: a frame for a deactivated node is
	// dropped, one for a forwarder is delivered, neither is parked as if
	// the node had yet to register.
	p.deliver(wire.Envelope{From: 0, To: gone[0], Payload: "late"})
	p.deliver(wire.Envelope{From: 0, To: gone[1], Payload: "late"})
	if len(p.heldLocal) != 0 {
		t.Fatalf("frames for departed nodes were parked: %v", p.heldLocal)
	}
	if n := p.nodes[gone[1]].h.(*echoNode); n.got.Load() != 1 {
		t.Fatalf("forwarder got %d messages, want 1", n.got.Load())
	}

	// A node leaving from inside the pass: everyone else still ticks
	// exactly once per tick.
	stopper := &selfStopNode{}
	p.Register(3, stopper)
	last := &echoNode{}
	p.Register(4, last)
	p.tickAll()
	p.tickAll()
	if got := stopper.timeouts.Load(); got != 1 {
		t.Fatalf("self-stopping node ticked %d times, want 1", got)
	}
	for i, n := range append(live, last) {
		if got := n.timeouts.Load(); got != 2 {
			t.Fatalf("node %d ticked %d times over 2 ticks", i, got)
		}
	}
	if len(p.order) != len(live)+1 {
		t.Fatalf("order holds %d nodes, want %d", len(p.order), len(live)+1)
	}
}

// readyProbe records the order of its callbacks and, like a protocol node
// with a complete input set, sends once per input from OnReady.
type readyProbe struct {
	echoNode
	mu      sync.Mutex
	events  []string
	pending int
	inTask  *atomic.Bool
}

func (n *readyProbe) note(ev string) {
	n.mu.Lock()
	n.events = append(n.events, ev)
	n.mu.Unlock()
}

func (n *readyProbe) OnMessage(ctx *transport.Context, from transport.NodeID, payload any) {
	n.note("msg")
	if payload == "input" {
		n.pending++
	}
}

func (n *readyProbe) OnReady(ctx *transport.Context) {
	if n.inTask.Load() {
		n.note("ready-inside-task")
	}
	if n.pending > 0 {
		n.pending--
		n.note("ready-fired")
		ctx.Send(ctx.Self(), "output")
	}
}

func (n *readyProbe) snapshot() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.events...)
}

// TestReadinessPassRunsBetweenTasks: with a tick that never comes, a node
// still acts on a delivered input — after the task that delivered it has
// finished, never inside it — the clock does not move, and an idle peer
// goes back to sleep instead of spinning.
func TestReadinessPassRunsBetweenTasks(t *testing.T) {
	p := newTestPeer(time.Hour)
	defer p.Close()
	var inTask atomic.Bool
	n := &readyProbe{inTask: &inTask}
	p.Register(0, n)
	p.Start()

	p.DoSync(func() {
		inTask.Store(true)
		p.Send(0, 0, "input")
		inTask.Store(false)
	})
	deadline := time.After(5 * time.Second)
	for len(n.snapshot()) < 3 {
		select {
		case <-deadline:
			t.Fatalf("the input was never acted on without a tick: %v", n.snapshot())
		case <-time.After(time.Millisecond):
		}
	}
	time.Sleep(20 * time.Millisecond) // anything spinning would pile up events here
	want := []string{"msg", "ready-fired", "msg"}
	got := n.snapshot()
	if len(got) != len(want) {
		t.Fatalf("events %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events %v, want %v", got, want)
		}
	}
	var now int64
	p.DoSync(func() { now = p.Now() })
	if now != 0 || n.timeouts.Load() != 0 {
		t.Fatalf("readiness moved the clock: Now()=%d, %d timeouts", now, n.timeouts.Load())
	}
}

// countingConn counts the Read calls of an accepted connection.
type countingConn struct {
	net.Conn
	reads *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// twoPeers wires two started peers on loopback; member 1's accepted
// connections count their reads into the returned counter.
func twoPeers(t *testing.T) (p0, p1 *Peer, reads *atomic.Int64) {
	t.Helper()
	lis0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reads = &atomic.Int64{}
	p0 = New(Options{Index: 0, Addr: lis0.Addr().String(), Pids: []int32{0}, Seed: 1, Tick: time.Millisecond})
	p1 = New(Options{Index: 1, Addr: lis1.Addr().String(), Pids: []int32{1}, Seed: 1, Tick: time.Millisecond})
	t.Cleanup(func() {
		p0.Close()
		p1.Close()
		lis0.Close()
		lis1.Close()
	})
	serve(t, lis0, p0)
	serve(t, countingListener{lis1, reads}, p1)
	return p0, p1, reads
}

type countingListener struct {
	net.Listener
	reads *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.reads}, nil
}

func waitFrames(t *testing.T, rec *recorderNode, want int) []int {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for len(rec.snapshot()) < want {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d frames arrived", len(rec.snapshot()), want)
		case <-time.After(2 * time.Millisecond):
		}
	}
	time.Sleep(20 * time.Millisecond) // a duplicate would trail in here
	return rec.snapshot()
}

// TestLinkDrainsBurstInOneWrite: a burst queued on a link — here 500
// frames parked for a pid nobody hosts yet, released at once by the book
// update — is sealed in one pass and written as a batch, so the receiver
// needs a few socket reads, not two per frame, and sees sequence order.
func TestLinkDrainsBurstInOneWrite(t *testing.T) {
	p0, p1, reads := twoPeers(t)
	rec := &recorderNode{}
	p0.Register(0, &echoNode{})
	p1.Register(3, rec)
	p1.SetBook([]wire.MemberInfo{p0.Me()})
	p0.Start()
	p1.Start()

	const frames = 500
	p0.DoSync(func() {
		for i := 0; i < frames; i++ {
			p0.Send(0, 3, i)
		}
	})
	p0.AddMember(p1.Me())
	got := waitFrames(t, rec, frames)
	if len(got) != frames {
		t.Fatalf("received %d frames, want %d", len(got), frames)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("frame %d carries %d: order lost", i, v)
		}
	}
	if n := reads.Load(); n > frames/4 {
		t.Fatalf("%d frames cost the receiver %d socket reads; the burst was not batched", frames, n)
	}
}

// notOnTheWire is deliberately unregistered with the codec.
type notOnTheWire struct{ X int }

// TestUnencodableFrameDropsAloneFromBatch: an unencodable payload in the
// middle of a batch takes itself out and recycles the connection; every
// other frame of the batch — before and after it — still arrives exactly
// once, in order.
func TestUnencodableFrameDropsAloneFromBatch(t *testing.T) {
	p0, p1, _ := twoPeers(t)
	rec := &recorderNode{}
	p0.Register(0, &echoNode{})
	p1.Register(3, rec)
	p1.SetBook([]wire.MemberInfo{p0.Me()})
	p0.Start()
	p1.Start()

	const frames = 40
	p0.DoSync(func() {
		for i := 0; i < frames; i++ {
			if i == frames/2 {
				p0.Send(0, 3, notOnTheWire{i})
			}
			p0.Send(0, 3, i)
		}
	})
	p0.AddMember(p1.Me())
	got := waitFrames(t, rec, frames)
	if len(got) != frames {
		t.Fatalf("received %d frames, want %d (replay duplicated or lost some)", len(got), frames)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("frame %d carries %d: order lost around the dropped frame", i, v)
		}
	}
}
