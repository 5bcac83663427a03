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

// resetProxy sits between a dialing peer and its target member and
// force-drops established connections after a configurable number of
// forwarded bytes, up to a reset budget — the "kernel accepted the frame
// but the network swallowed it" failure the ack/retransmit layer exists
// for. Connections are killed with SetLinger(0), so the drop surfaces as
// a hard RST and any unacknowledged bytes in flight are discarded.
type resetProxy struct {
	t         *testing.T
	lis       net.Listener
	target    string
	dropAfter int64
	maxResets int32
	resets    atomic.Int32
}

func newResetProxy(t *testing.T, target string, dropAfter int64, maxResets int32) *resetProxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &resetProxy{t: t, lis: lis, target: target, dropAfter: dropAfter, maxResets: maxResets}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go p.serveConn(c)
		}
	}()
	return p
}

func (p *resetProxy) Addr() string { return p.lis.Addr().String() }

func (p *resetProxy) serveConn(client net.Conn) {
	upstream, err := net.Dial("tcp", p.target)
	if err != nil {
		client.Close()
		return
	}
	var once sync.Once
	kill := func(abort bool) {
		once.Do(func() {
			if abort {
				if tc, ok := client.(*net.TCPConn); ok {
					tc.SetLinger(0)
				}
				if tc, ok := upstream.(*net.TCPConn); ok {
					tc.SetLinger(0)
				}
			}
			client.Close()
			upstream.Close()
		})
	}
	// Forward direction, with reset injection at the byte mark.
	go func() {
		defer kill(false)
		buf := make([]byte, 512)
		var fwd int64
		for {
			n, err := client.Read(buf)
			if n > 0 {
				if _, werr := upstream.Write(buf[:n]); werr != nil {
					return
				}
				fwd += int64(n)
				if fwd >= p.dropAfter && p.resets.Load() < p.maxResets {
					p.resets.Add(1)
					kill(true)
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	// Reverse direction (handshake acks, cumulative acks): plain copy.
	go func() {
		defer kill(false)
		buf := make([]byte, 512)
		for {
			n, err := upstream.Read(buf)
			if n > 0 {
				if _, werr := client.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
}

// recorderNode appends every delivered int payload.
type recorderNode struct {
	mu  sync.Mutex
	got []int
}

func (r *recorderNode) OnInit(ctx *transport.Context)    {}
func (r *recorderNode) OnTimeout(ctx *transport.Context) {}
func (r *recorderNode) OnMessage(ctx *transport.Context, from transport.NodeID, payload any) {
	if v, ok := payload.(int); ok {
		r.mu.Lock()
		r.got = append(r.got, v)
		r.mu.Unlock()
	}
}

func (r *recorderNode) snapshot() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.got...)
}

// TestExactlyOnceAcrossResets is the fault-injection acceptance test of
// the link layer: a proxy between two peers force-drops the connection at
// byte marks (several forced mid-connection resets), and every sequenced
// frame must still arrive exactly once and in order — nothing lost to a
// reset the sender's write already "succeeded" into, nothing duplicated
// by the replay.
func TestExactlyOnceAcrossResets(t *testing.T) {
	lis0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis0.Close()
	defer lis1.Close()

	const wantResets = 5
	proxy := newResetProxy(t, lis1.Addr().String(), 900, wantResets)

	p0 := New(Options{Index: 0, Addr: lis0.Addr().String(), Pids: []int32{0}, Seed: 1, Tick: time.Millisecond})
	// Member 1 advertises the proxy address, so member 0's link dials
	// through the resetting path.
	p1 := New(Options{Index: 1, Addr: proxy.Addr(), Pids: []int32{1}, Seed: 1, Tick: time.Millisecond})
	defer p0.Close()
	defer p1.Close()
	p0.SetBook([]wire.MemberInfo{p1.Me()})
	p1.SetBook([]wire.MemberInfo{p0.Me()})

	sender, rec := &echoNode{}, &recorderNode{}
	p0.Register(0, sender) // pid 0, kind L
	p1.Register(3, rec)    // pid 1, kind L
	serve(t, lis0, p0)
	serve(t, lis1, p1)
	p0.Start()
	p1.Start()

	const frames = 400
	for i := 0; i < frames; i++ {
		i := i
		p0.Do(func() { p0.Send(0, 3, i) })
		if i%25 == 0 {
			time.Sleep(2 * time.Millisecond) // spread traffic over several connections
		}
	}

	deadline := time.After(60 * time.Second)
	for len(rec.snapshot()) < frames {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d frames arrived after %d resets", len(rec.snapshot()), frames, proxy.resets.Load())
		case <-time.After(10 * time.Millisecond):
		}
	}
	got := rec.snapshot()
	if len(got) != frames {
		t.Fatalf("received %d frames, want exactly %d (duplicates?)", len(got), frames)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("frame %d out of order or duplicated: got value %d (full head: %v)", i, v, got[:min(i+3, len(got))])
		}
	}
	if r := proxy.resets.Load(); r < 3 {
		t.Fatalf("proxy forced only %d resets, want >= 3 for the test to mean anything", r)
	}
	t.Logf("%d frames exactly once, in order, across %d forced resets", frames, proxy.resets.Load())
}

// TestIdleLinkReplaysAfterReset covers the reader-side death detection: a
// link whose every frame was already written (nothing left in the send
// queue) must still notice a reset that swallowed frames in flight and
// replay them — the write path alone never learns about the loss.
func TestIdleLinkReplaysAfterReset(t *testing.T) {
	lis0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis0.Close()
	defer lis1.Close()

	// One reset, triggered only after the handshake plus a few frames have
	// flowed; everything the sender wrote after the mark dies in flight
	// while the sender goes idle.
	proxy := newResetProxy(t, lis1.Addr().String(), 600, 1)

	p0 := New(Options{Index: 0, Addr: lis0.Addr().String(), Pids: []int32{0}, Seed: 1, Tick: time.Millisecond})
	p1 := New(Options{Index: 1, Addr: proxy.Addr(), Pids: []int32{1}, Seed: 1, Tick: time.Millisecond})
	defer p0.Close()
	defer p1.Close()
	p0.SetBook([]wire.MemberInfo{p1.Me()})
	p1.SetBook([]wire.MemberInfo{p0.Me()})
	rec := &recorderNode{}
	p0.Register(0, &echoNode{})
	p1.Register(3, rec)
	serve(t, lis0, p0)
	serve(t, lis1, p1)
	p0.Start()
	p1.Start()

	const frames = 60
	for i := 0; i < frames; i++ {
		i := i
		p0.Do(func() { p0.Send(0, 3, i) })
	}
	// The sender is now idle; only drainControl noticing the dead
	// connection can trigger the replay of whatever the reset swallowed.
	deadline := time.After(30 * time.Second)
	for len(rec.snapshot()) < frames {
		select {
		case <-deadline:
			t.Fatalf("idle link never replayed: %d/%d frames (resets=%d)", len(rec.snapshot()), frames, proxy.resets.Load())
		case <-time.After(10 * time.Millisecond):
		}
	}
	got := rec.snapshot()
	for i, v := range got {
		if v != i {
			t.Fatalf("frame %d: got %d, want %d", i, v, i)
		}
	}
}

// expectGiveUp runs a peer whose book lists member 1 at addr, sends it a
// frame, and requires OnDown(1) within ten seconds of a 150 ms GiveUp.
func expectGiveUp(t *testing.T, addr, why string) {
	t.Helper()
	lis0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis0.Close()
	var downs atomic.Int32
	p0 := New(Options{
		Index: 0, Addr: lis0.Addr().String(), Pids: []int32{0}, Seed: 1,
		Tick:   time.Millisecond,
		GiveUp: 150 * time.Millisecond,
		OnDown: func(idx int32) {
			if idx == 1 {
				downs.Add(1)
			}
		},
	})
	defer p0.Close()
	p0.SetBook([]wire.MemberInfo{{Index: 1, Addr: addr, Pids: []int32{1}}})
	p0.Register(0, &echoNode{})
	p0.Start()
	p0.Do(func() { p0.Send(0, 3, "ping") })

	deadline := time.After(10 * time.Second)
	for downs.Load() == 0 {
		select {
		case <-deadline:
			t.Fatalf("OnDown never fired for %s", why)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestGiveUpNotifiesOnDown checks fail-stop detection: a member that
// stays unreachable past Options.GiveUp is reported through OnDown
// instead of stalling its senders silently forever.
func TestGiveUpNotifiesOnDown(t *testing.T) {
	// Reserve an address with nobody listening behind it.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	expectGiveUp(t, deadAddr, "the unreachable member")
}

// TestGiveUpFiresOnSilentPeer: a member whose address accepts connections
// but never answers the Hello — a wedged process, a listener backlog with
// nobody behind it — is as unreachable as one that refuses them. The
// handshake is bounded like the connect, so the link keeps cycling through
// dial, backoff and give-up instead of sitting in one Read forever.
func TestGiveUpFiresOnSilentPeer(t *testing.T) {
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	go func() {
		for {
			nc, err := silent.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { nc.Close() }) // held open, never read, never answered
		}
	}()
	expectGiveUp(t, silent.Addr().String(), "a member that accepts and stays silent")
}
