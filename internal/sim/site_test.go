package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// triad spawns three nodes and colocates them in TIMEOUT order r, m, l,
// the order core gives a process's right, middle and left nodes.
func triad(e *Engine) (l, m, r *echoNode, idl, idm, idr NodeID) {
	l, m, r = &echoNode{}, &echoNode{}, &echoNode{}
	idl, idm, idr = e.Spawn(l), e.Spawn(m), e.Spawn(r)
	e.Colocate(idr, idm, idl)
	return
}

func TestSiteDeliverySameRoundAfterCallbackInOrder(t *testing.T) {
	e := New(Config{Seed: 1})
	l, m, r, idl, idm, _ := triad(e)
	var log []string
	sent := false
	r.onTick = func(ctx *Context) {
		if sent {
			return
		}
		sent = true
		for i := 1; i <= 3; i++ {
			ctx.Send(idm, i)
		}
		if len(m.got) != 0 {
			t.Errorf("in-site message delivered inside the sending callback")
		}
		log = append(log, "r sent")
	}
	m.onMsg = func(ctx *Context, from NodeID, payload any) {
		log = append(log, fmt.Sprintf("m got %v at %d", payload, ctx.Now()))
		if payload == 3 {
			ctx.Send(idl, "up")
		}
	}
	m.onTick = func(ctx *Context) { log = append(log, "m tick") }
	l.onMsg = func(ctx *Context, from NodeID, payload any) {
		log = append(log, fmt.Sprintf("l got %v from %d at %d", payload, from, ctx.Now()))
	}
	l.onTick = func(ctx *Context) { log = append(log, "l tick") }
	e.Step()
	want := []string{"r sent", "m got 1 at 1", "m got 2 at 1", "m got 3 at 1",
		fmt.Sprintf("l got up from %d at 1", idm), "m tick", "l tick"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("round 1 ran\n  %q\nwant\n  %q", log, want)
	}
	st := e.Stats()
	if st.MessagesSent != 4 || st.MessagesDelivered != 4 || st.LocalDelivered != 4 || e.InFlight() != 0 {
		t.Fatalf("stats %+v, in flight %d", st, e.InFlight())
	}
}

// A message between sites still arrives the next round; its handler's
// in-site sends follow it at once, before the round's next delivery, so a
// serve descends the site in the round it reached it.
func TestSiteInterSiteNextRoundThenDescends(t *testing.T) {
	e := New(Config{Seed: 2})
	l, m, r, idl, idm, idr := triad(e)
	src := &echoNode{}
	e.Spawn(src)
	sent := false
	src.onTick = func(ctx *Context) {
		if !sent {
			ctx.Send(idl, "serve")
			sent = true
		}
	}
	l.onMsg = func(ctx *Context, from NodeID, payload any) { ctx.Send(idm, payload) }
	m.onMsg = func(ctx *Context, from NodeID, payload any) { ctx.Send(idr, payload) }
	var at int64 = -1
	r.onMsg = func(ctx *Context, from NodeID, payload any) { at = ctx.Now() }
	e.Step()
	if len(l.got) != 0 {
		t.Fatalf("message between sites delivered in its sending round")
	}
	e.Step()
	if at != 2 || len(l.got) != 1 || len(m.got) != 1 {
		t.Fatalf("serve reached the right node at round %d (left got %d, middle %d), want round 2", at, len(l.got), len(m.got))
	}
	if st := e.Stats(); st.LocalDelivered != 2 || st.MessagesDelivered != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSiteTimeoutOrder(t *testing.T) {
	for _, shuffle := range []bool{false, true} {
		e := New(Config{Seed: 3, ShuffleTimeouts: shuffle})
		var ran []NodeID
		var want [][]NodeID
		for s := 0; s < 8; s++ {
			var ids []NodeID
			for k := 0; k < 3; k++ {
				n := &echoNode{}
				n.onTick = func(ctx *Context) { ran = append(ran, ctx.Self()) }
				ids = append(ids, e.Spawn(n))
			}
			site := []NodeID{ids[2], ids[1], ids[0]}
			e.Colocate(site...)
			want = append(want, site)
		}
		firsts := map[NodeID]bool{}
		for round := 0; round < 20; round++ {
			ran = ran[:0]
			e.Step()
			if len(ran) != 24 {
				t.Fatalf("shuffle=%v: %d timeouts in a round, want 24", shuffle, len(ran))
			}
			for i := 0; i < len(ran); i += 3 {
				site := want[int(ran[i])/3]
				if !reflect.DeepEqual(ran[i:i+3], site) {
					t.Fatalf("shuffle=%v round %d: ran %v, want site order %v", shuffle, round, ran[i:i+3], site)
				}
			}
			firsts[ran[0]] = true
		}
		if shuffle && len(firsts) < 2 {
			t.Errorf("shuffled sites started every round with the same site")
		}
		if !shuffle && (len(firsts) != 1 || !firsts[want[0][0]]) {
			t.Errorf("unshuffled rounds did not start at the first site: %v", firsts)
		}
	}
}

func TestSiteShapeDoesNotDelay(t *testing.T) {
	e := New(Config{Seed: 4, Shape: wanShape(5)})
	_, m, r, _, idm, _ := triad(e)
	other := &echoNode{}
	idOther := e.Spawn(other)
	var inSite, between int64 = -1, -1
	m.onMsg = func(ctx *Context, from NodeID, payload any) { inSite = ctx.Now() }
	other.onMsg = func(ctx *Context, from NodeID, payload any) { between = ctx.Now() }
	sent := false
	r.onTick = func(ctx *Context) {
		if !sent {
			ctx.Send(idm, "sibling")
			ctx.Send(idOther, "wan")
			sent = true
		}
	}
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if inSite != 1 {
		t.Errorf("in-site message delivered at round %d under a WAN shape, want 1", inSite)
	}
	if between != 7 {
		t.Errorf("message between sites delivered at round %d, want 7 (next round plus 5)", between)
	}
}

// A self-send and a send from outside a round are not in-site deliveries:
// both arrive the next round.
func TestSiteSelfSendAndInjectWaitARound(t *testing.T) {
	e := New(Config{Seed: 5})
	_, m, r, _, idm, idr := triad(e)
	e.Inject(idr, idm, "outside")
	sent := false
	r.onTick = func(ctx *Context) {
		if !sent {
			ctx.Send(ctx.Self(), "me")
			sent = true
		}
	}
	if len(m.got) != 0 {
		t.Fatalf("injection delivered outside a round")
	}
	e.Step()
	if len(m.got) != 1 || len(r.got) != 0 {
		t.Fatalf("round 1: middle got %v, right got %v; want the injection only", m.got, r.got)
	}
	e.Step()
	if len(r.got) != 1 || r.got[0] != "me" {
		t.Fatalf("self-send not delivered the next round: %v", r.got)
	}
	if st := e.Stats(); st.LocalDelivered != 0 {
		t.Fatalf("LocalDelivered = %d, want 0", st.LocalDelivered)
	}
}

type ping struct{}

func TestSiteDrainBoundNamesPayloads(t *testing.T) {
	e := New(Config{Seed: 6})
	l, m, _, idl, idm, _ := triad(e)
	l.onMsg = func(ctx *Context, from NodeID, payload any) { ctx.Send(idm, ping{}) }
	m.onMsg = func(ctx *Context, from NodeID, payload any) { ctx.Send(idl, ping{}) }
	m.onTick = func(ctx *Context) { ctx.Send(idl, ping{}) }
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "in-site messages") || !strings.Contains(msg, "sim.ping") {
			t.Fatalf("a sibling ping-pong did not fail naming its payload: %q", msg)
		}
	}()
	e.Step()
}

func TestColocateMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	e := New(Config{Seed: 7})
	_, _, r, _, _, idr := triad(e)
	other := e.Spawn(&echoNode{})
	mustPanic("node already in a site", func() { e.Colocate(other, idr) })
	mustPanic("node named twice", func() { e.Colocate(other, other) })
	mustPanic("no such node", func() { e.Colocate(other, NodeID(99)) })
	r.onTick = func(ctx *Context) { e.Colocate(other, e.Spawn(&echoNode{})) }
	mustPanic("within a round", func() { e.Step() })
}

// The asynchronous model ignores sites: the same seed gives the same
// deliveries, at the same times, with or without them.
func TestSiteAsyncUnchanged(t *testing.T) {
	run := func(colocate bool) []string {
		e := New(Config{Seed: 8, Async: true, MaxDelay: 6})
		var trace []string
		nodes := make([]*echoNode, 6)
		for i := range nodes {
			nodes[i] = &echoNode{}
			e.Spawn(nodes[i])
		}
		if colocate {
			e.Colocate(2, 1, 0)
			e.Colocate(5, 4, 3)
		}
		for i, n := range nodes {
			sent := 0
			n.onTick = func(ctx *Context) {
				if sent < 10 {
					ctx.Send(NodeID((i+1)%len(nodes)), sent)
					ctx.Send(NodeID(i/3*3+(i+1)%3), -sent)
					sent++
				}
			}
			n.onMsg = func(ctx *Context, from NodeID, payload any) {
				trace = append(trace, fmt.Sprintf("%d:%d→%d:%v", ctx.Now(), from, ctx.Self(), payload))
			}
		}
		e.Run(500)
		if st := e.Stats(); st.LocalDelivered != 0 || st.MessagesDelivered != 120 {
			t.Fatalf("colocate=%v: stats %+v", colocate, st)
		}
		return trace
	}
	if a, b := run(false), run(true); !reflect.DeepEqual(a, b) {
		t.Fatalf("sites changed the asynchronous schedule")
	}
}
