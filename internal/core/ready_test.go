package core

import (
	"testing"

	"skueue/internal/batch"
	"skueue/internal/transport"
)

// tick is TIMEOUT on every node, delivering nothing.
func (m *memNet) tick() {
	m.now++
	for _, id := range m.order {
		m.nodes[id].OnTimeout(m.ctxs[id])
	}
}

// settle is what a readiness-driven backend does between two ticks:
// deliver everything queued, offer every node its readiness hook, and
// repeat until neither produces a message. between, when set, runs after
// every delivery (the test's way of acting mid-wave).
func (m *memNet) settle(between func()) {
	for {
		for len(m.queue) > 0 {
			e := m.queue[0]
			m.queue = m.queue[1:]
			m.nodes[e.to].OnMessage(m.ctxs[e.to], e.from, e.payload)
			if between != nil {
				between()
			}
		}
		for _, id := range m.order {
			m.nodes[id].(transport.ReadyHandler).OnReady(m.ctxs[id])
		}
		if len(m.queue) == 0 {
			return
		}
	}
}

// leaves lists the hosted nodes without children: the only nodes that
// originate a wave, and only at a TIMEOUT.
func leaves(cl *Cluster) []*Node {
	var out []*Node
	for _, p := range cl.Processes() {
		for _, id := range p.Nodes {
			if n, ok := cl.Node(id); ok && len(n.children()) == 0 {
				out = append(out, n)
			}
		}
	}
	return out
}

// TestReadinessNeedsOneTickPerWave pins the fire predicate both hooks
// share, in all three disciplines, on a backend that only ever calls
// OnReady between ticks: an idle tree originates nothing off the tick; an
// operation injected where clients inject (a process's middle node) waits
// for ONE tick — the leaves' contribution — and then finishes, DHT round
// trip included, without another.
func TestReadinessNeedsOneTickPerWave(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"queue", Config{Mode: batch.Queue}},
		{"stack", Config{Mode: batch.Stack, DisableLocalCombining: true}},
		{"heap", Config{Mode: batch.Heap, HeapLevels: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Processes, cfg.Seed = 2, 7
			net := newMemNet(t)
			cl, err := NewMember(cfg, 0, []int32{0, 1}, net)
			if err != nil {
				t.Fatal(err)
			}
			client, _ := cl.Node(cl.Client(0))
			if len(client.children()) == 0 {
				t.Fatalf("client node %v has no children", client.self)
			}

			net.settle(nil)
			if w := cl.Metrics().WavesAssigned; w != 0 || client.waveSeq != 0 {
				t.Fatalf("an idle tree started a wave off the tick (%d assigned, client at wave %d)", w, client.waveSeq)
			}

			cl.Enqueue(client.self.ID)
			cl.Dequeue(client.self.ID)
			net.settle(nil)
			if w := cl.Metrics().WavesAssigned; w != 0 || client.waveSeq != 0 {
				t.Fatalf("a wave started with no tick in it (%d assigned, client at wave %d)", w, client.waveSeq)
			}
			net.tick()
			net.settle(nil)
			if got := cl.Metrics().WavesAssigned; got != 1 {
				t.Fatalf("after one tick: %d waves assigned, want 1", got)
			}
			if cl.Finished() != cl.Issued() {
				t.Fatalf("%d of %d operations finished after one tick", cl.Finished(), cl.Issued())
			}
			if err := cl.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReadinessFiresOnUngate: a node whose children all contributed while
// stage 4 held it back (stack: a push awaiting its put-ack) fires the
// moment the ack ungates it, not at the next tick.
func TestReadinessFiresOnUngate(t *testing.T) {
	cfg := Config{Mode: batch.Stack, DisableLocalCombining: true, Processes: 2, Seed: 7}
	net := newMemNet(t)
	cl, err := NewMember(cfg, 0, []int32{0, 1}, net)
	if err != nil {
		t.Fatal(err)
	}
	client, _ := cl.Node(cl.Client(0))
	idle := func() bool {
		for _, n := range leaves(cl) {
			if n.inBatch != nil {
				return false
			}
		}
		return true
	}

	cl.Enqueue(client.self.ID) // its put-ack gates the wave of the next push
	net.tick()
	ticked := false
	net.settle(func() {
		if !ticked && client.stage4Gated() && idle() {
			// Wave 1 is served, its put is still on the way: the leaves'
			// next tick reaches a client that may not fire yet.
			ticked = true
			cl.Enqueue(client.self.ID)
			net.tick()
			if client.waveSeq != 1 {
				t.Fatalf("the gated client fired wave %d", client.waveSeq+1)
			}
		}
	})
	if !ticked {
		t.Fatal("the leaves never idled behind a closed stage-4 gate; the test did not exercise the ungate path")
	}
	if got := cl.Metrics().WavesAssigned; got != 2 {
		t.Fatalf("%d waves assigned, want 2: the ungated wave did not fire off the tick", got)
	}
	if cl.Finished() != cl.Issued() {
		t.Fatalf("%d of %d operations finished with no tick after the ungate", cl.Finished(), cl.Issued())
	}
	if err := cl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
