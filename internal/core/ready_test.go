package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"maps"
	"strings"
	"testing"

	"skueue/internal/batch"
	"skueue/internal/seqcheck"
	"skueue/internal/transport"
	"skueue/internal/wire"
	"skueue/internal/xrand"
)

// tick is TIMEOUT on every node, delivering nothing.
func (m *memNet) tick() {
	m.now++
	for _, id := range m.order {
		if h, ok := m.nodes[id]; ok {
			h.OnTimeout(m.ctxs[id])
		}
	}
}

// ready offers every node its readiness hook.
func (m *memNet) ready() {
	for _, id := range m.order {
		if h, ok := m.nodes[id]; ok {
			h.(transport.ReadyHandler).OnReady(m.ctxs[id])
		}
	}
}

// settle is what a readiness-driven backend does between two ticks:
// deliver everything queued, offer every node its readiness hook, and
// repeat until neither produces a message. between, when set, runs after
// every delivery (the test's way of acting mid-wave).
func (m *memNet) settle(between func()) {
	for {
		for len(m.queue) > 0 {
			e := m.pop()
			if h, ok := m.nodes[e.to]; ok {
				h.OnMessage(m.ctxs[e.to], e.from, e.payload)
			}
			if between != nil {
				between()
			}
		}
		m.ready()
		if len(m.queue) == 0 {
			return
		}
	}
}

// leaves lists the hosted nodes without children.
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

// depth is the number of tree edges between a hosted node and the anchor.
func depth(t *testing.T, cl *Cluster, n *Node) int {
	t.Helper()
	d := 0
	for !n.anchorRole {
		parent, ok := n.nb().Parent()
		if !ok {
			t.Fatalf("%v has neither a parent nor the anchor role", n.self)
		}
		if n, ok = cl.Node(parent.ID); !ok {
			t.Fatalf("parent %v is not hosted here", parent)
		}
		d++
	}
	return d
}

var threeDisciplines = []struct {
	name string
	cfg  Config
}{
	{"queue", Config{Mode: batch.Queue}},
	{"stack", Config{Mode: batch.Stack}},
	{"heap", Config{Mode: batch.Heap, HeapLevels: 3}},
}

// TestWorkDrivenWaves pins the fire predicate both hooks share, in all
// three disciplines, on a backend that calls OnReady between ticks. Before
// the first tick nothing moves; the first tick runs one wave under
// Algorithm 1 and every node answers its serve with a decline; from then on
// ticks originate nothing and an idle tree sends no frame at all. An
// operation injected where clients inject (a process's middle node) fires
// its node at once and finishes, DHT round trip included, without a tick:
// one wave, fired once by each node on the path to the anchor and by nobody
// else, followed by one decline from each of them. A closed loop of
// operations repeats exactly that, so no node fires twice between two
// serves.
func TestWorkDrivenWaves(t *testing.T) {
	for _, tc := range threeDisciplines {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Processes, cfg.Seed = 2, 7
			net := newMemNet(t)
			cl, err := NewMember(cfg, 0, []int32{0, 1}, net)
			if err != nil {
				t.Fatal(err)
			}

			net.settle(nil)
			if m := cl.Metrics(); m.BatchesSent != 0 || m.Declines != 0 || net.sent != 0 {
				t.Fatalf("before the first tick: %d batches, %d declines, %d frames", m.BatchesSent, m.Declines, net.sent)
			}
			net.tick()
			net.settle(nil)
			nodes := int64(len(cl.nodes))
			if m := cl.Metrics(); m.WavesAssigned != 1 || m.BatchesSent != nodes || m.Declines != nodes-1 {
				t.Fatalf("first tick: %d waves, %d batches, %d declines; want 1, %d, %d (the anchor declines to nobody)",
					m.WavesAssigned, m.BatchesSent, m.Declines, nodes, nodes-1)
			}
			for _, n := range cl.nodes {
				if n.standing != idle {
					t.Fatalf("%v does not stand idle after the first wave", n.self)
				}
			}

			before, sent := cl.Metrics(), net.sent
			for i := 0; i < 40; i++ {
				net.tick()
				net.settle(nil)
			}
			if m := cl.Metrics(); m != before || net.sent != sent {
				t.Fatalf("40 idle ticks moved something: %+v -> %+v, %d frames", before, m, net.sent-sent)
			}

			// One operation at a time, never a tick.
			for i := 0; i < 20; i++ {
				client, _ := cl.Node(cl.Client(i % 2))
				d := int64(depth(t, cl, client))
				before := cl.Metrics()
				if i%4 < 2 {
					cl.Enqueue(client.self.ID)
				} else {
					cl.Dequeue(client.self.ID)
				}
				net.settle(nil)
				if cl.Finished() != cl.Issued() {
					t.Fatalf("op %d: %d of %d operations finished with no tick", i, cl.Finished(), cl.Issued())
				}
				m := cl.Metrics()
				if got := m.WavesAssigned - before.WavesAssigned; got != 1 {
					t.Fatalf("op %d: %d waves assigned, want 1", i, got)
				}
				if got := m.BatchesSent - before.BatchesSent; got != d+1 {
					t.Fatalf("op %d: %d batches fired, want %d: one per node on the path", i, got, d+1)
				}
				if got := m.Declines - before.Declines; got != d {
					t.Fatalf("op %d: %d declines followed, want %d: one per node on the path below the anchor", i, got, d)
				}
				if m.EmptyWaves == before.EmptyWaves {
					t.Fatalf("op %d: no idle child was counted as reported", i)
				}
			}
			if err := cl.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStaleDeclineIsInert: around a fail-stop restart a child re-executes
// its past, so a decline can reach the parent after a newer aggregate of the
// same child. Whether that aggregate is still waiting or already folded,
// the parent must go on counting the child as active — it is waiting for a
// serve.
func TestStaleDeclineIsInert(t *testing.T) {
	cfg := Config{Processes: 2, Seed: 7}
	net := newMemNet(t)
	cl, err := NewMember(cfg, 0, []int32{0, 1}, net)
	if err != nil {
		t.Fatal(err)
	}
	net.tick()
	net.settle(nil)
	client, _ := cl.Node(cl.Client(0))
	pref, _ := client.nb().Parent()
	parent, _ := cl.Node(pref.ID)
	stale := declineMsg{From: client.self, WaveSeq: client.waveSeq}
	if !parent.standsIdle(client.self.ID) {
		t.Fatalf("%v does not count %v as idle after the first wave", parent.self, client.self)
	}

	cl.Enqueue(client.self.ID)
	replayed := 0
	net.settle(func() {
		if len(client.inFlight) == 0 || client.waveSeq != stale.WaveSeq+1 {
			return
		}
		// The client's next wave is on its way: waiting at the parent, or
		// folded into the parent's own batch.
		parent.OnMessage(net.ctxs[parent.self.ID], client.self.ID, stale)
		replayed++
		if parent.standsIdle(client.self.ID) {
			t.Fatalf("a decline after wave %d made %v idle again while its wave %d is in flight (waiting=%v folded=%d)",
				stale.WaveSeq, client.self, client.waveSeq, parent.hasWaitingFrom(client.self.ID), parent.foldedWaves[client.self.ID])
		}
	})
	if replayed < 2 {
		t.Fatalf("the stale decline was replayed %d times, want it both before and after the fold", replayed)
	}
	if cl.Finished() != cl.Issued() {
		t.Fatalf("%d of %d operations finished", cl.Finished(), cl.Issued())
	}
	if got, want := parent.idleKids[client.self.ID], stale.WaveSeq+1; got != want {
		t.Fatalf("%v ends up idle after wave %d, want %d", client.self, got, want)
	}
}

// TestSnapshotKeepsStanding: a member image cut in the middle of a wave
// holds a mixed tree — the operation's path active or in flight, everything
// beside it idle. Restored from the image (through the codec), with the
// frames that were under way delivered as a link replay would, every node
// stands where it stood: the parents do not wait for the idle subtrees, and
// the operation and its successor finish without a tick.
func TestSnapshotKeepsStanding(t *testing.T) {
	for _, tc := range threeDisciplines {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Processes, cfg.Seed = 2, 7
			net := newMemNet(t)
			cl, err := NewMember(cfg, 0, []int32{0, 1}, net)
			if err != nil {
				t.Fatal(err)
			}
			net.tick()
			net.settle(nil)
			client, _ := cl.Node(cl.Client(0))
			cl.Enqueue(client.self.ID)
			net.ready()
			for cl.Metrics().WavesAssigned < 2 { // up to the anchor's assignment, not beyond
				e := net.pop()
				net.nodes[e.to].OnMessage(net.ctxs[e.to], e.from, e.payload)
				net.ready()
			}
			snap, err := cl.SnapshotMember()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
				t.Fatal(err)
			}
			var decoded MemberSnapshot
			if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
				t.Fatal(err)
			}
			net2 := newMemNet(t)
			cl2, err := RestoreMember(cfg, &decoded, net2)
			if err != nil {
				t.Fatal(err)
			}
			net2.queue = net.queue

			idleNodes, idleEdges := 0, 0
			for id, n := range cl.nodes {
				r := cl2.nodes[id]
				if r.standing != n.standing || !maps.Equal(r.idleKids, n.idleKids) {
					t.Fatalf("%v restored as standing %d with idle children %v, was %d with %v", n.self, r.standing, r.idleKids, n.standing, n.idleKids)
				}
				if n.standing == idle {
					idleNodes++
				}
				idleEdges += len(n.idleKids)
			}
			if idleNodes == 0 || idleNodes == len(cl.nodes) || idleEdges == 0 {
				t.Fatalf("the image is not a mixed tree: %d of %d nodes idle, %d idle children recorded", idleNodes, len(cl.nodes), idleEdges)
			}

			net2.settle(nil)
			cl2.Dequeue(cl2.Client(1))
			net2.settle(nil)
			if cl2.Finished() != cl2.Issued() {
				t.Fatalf("%d of %d operations finished with no tick after the restore", cl2.Finished(), cl2.Issued())
			}
			for _, n := range cl2.nodes {
				if n.standing != idle {
					t.Fatalf("%v does not stand idle again", n.self)
				}
			}
			if err := cl2.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRestoreAcrossStanding is the fail-stop side of standing, with three
// members on one net so that one can crash while its tree neighbours live
// on. The victim hosts neither the anchor nor a mere leaf subtree: one of its
// nodes has a child on another member, the driver. It is cut (a) after the
// cluster has stood idle for 20 ticks and (b) between a serve and the
// decline answering it — a wave from the driver has just been served through
// that node, whose decline has to wait for the remote child's. The victim
// runs on, its declines and whatever follows reach its neighbours, and is
// then replaced by its image, with every frame its links delivered since the
// cut delivered again and its fire log to repeat: the waves of its own
// operation and of the driver's met at the node between them, and which of
// them rode which of its waves is in no image and no link. The second
// incarnation declines again where the first
// already had; by then its parent has folded a newer wave of the same node,
// so the copy must not make it idle there. Afterwards operations through
// victim and driver finish without a tick, the merged history holds every
// operation once and is consistent, and each node that believes it stands
// idle is known as idle to its parent.
func TestRestoreAcrossStanding(t *testing.T) {
	for _, tc := range threeDisciplines {
		for _, cutServed := range []bool{false, true} {
			name := tc.name + "/idle"
			if cutServed {
				name = tc.name + "/served"
			}
			t.Run(name, func(t *testing.T) {
				cfg := tc.cfg
				// Seed 15: on three processes a process mostly reports straight
				// to the anchor's, and it is the first seed from 1 up whose
				// tree has a child on a member that hosts no anchor.
				cfg.Processes, cfg.Seed = 3, 15
				net := newMemNet(t)
				var members [3]*Cluster
				for i := range members {
					cl, err := NewMember(cfg, int32(i), []int32{int32(i)}, net)
					if err != nil {
						t.Fatal(err)
					}
					members[i] = cl
				}
				host := func(id transport.NodeID) int {
					for i, cl := range members {
						if _, ok := cl.nodes[id]; ok {
							return i
						}
					}
					t.Fatalf("node %d has no host", id)
					return -1
				}
				vi, di := -1, -1
				for i, cl := range members {
					for _, n := range cl.nodes {
						for _, k := range n.children() {
							if cl.AnchorNode() == nil && host(k.ID) != i {
								vi, di = i, host(k.ID)
							}
						}
					}
				}
				if vi < 0 {
					t.Fatal("no member other than the anchor's has a child on another member; pick another seed")
				}
				victim, driver := members[vi], members[di]
				for i := 0; i < 20; i++ {
					net.tick()
					net.settle(nil)
				}

				// The cut, and from then on a record of what the first
				// incarnation is delivered over its links (what its own nodes
				// send each other dies with it) — through the codec, as on a
				// link: a handler is free to consume the slices of its frame.
				var snap *MemberSnapshot
				var replay []memEnv
				// The host's part of a restart: the fire log, and an
				// operation journaled after the cut re-submitted under its
				// identity.
				type firing struct {
					node   transport.NodeID
					wave   int64
					folded []FoldedWaveImage
				}
				var fireLog []firing
				victim.SetOnFire(func(node transport.NodeID, wave int64, folded []FoldedWaveImage) {
					fireLog = append(fireLog, firing{node, wave, folded})
				})
				deliver := func() {
					e := net.pop()
					_, to := victim.nodes[e.to]
					if _, from := victim.nodes[e.from]; to && !from && snap != nil {
						blob, err := wire.EncodeValue(e.payload)
						if err != nil {
							t.Fatal(err)
						}
						copied, err := wire.DecodeValue(blob)
						if err != nil {
							t.Fatal(err)
						}
						replay = append(replay, memEnv{e.from, e.to, copied})
					}
					net.nodes[e.to].OnMessage(net.ctxs[e.to], e.from, e.payload)
				}
				// A member is never cut with a frame under way between two
				// of its own nodes (tcp.Peer.CaptureState refuses): such a
				// frame is in no image and in no link's replay.
				localInFlight := func() bool {
					for _, e := range net.queue {
						_, to := victim.nodes[e.to]
						if _, from := victim.nodes[e.from]; to && from {
							return true
						}
					}
					return false
				}
				run := func(cutWhenServed bool) {
					net.ready()
					for len(net.queue) > 0 {
						deliver()
						if cutWhenServed && snap == nil && !localInFlight() {
							if img, _ := victim.SnapshotMember(); img.Stats().ServedNodes > 0 {
								snap = img // served, and the readiness pass has not run
							}
						}
						net.ready()
					}
				}
				if cutServed {
					driver.Enqueue(driver.Client(0))
					run(true)
					if snap == nil {
						t.Fatal("no node of the victim was ever cut between its serve and its decline")
					}
				} else {
					var err error
					if snap, err = victim.SnapshotMember(); err != nil {
						t.Fatal(err)
					}
					if st := snap.Stats(); st.IdleNodes != 3 {
						t.Fatalf("image after 20 idle ticks holds %d idle nodes, want 3", st.IdleNodes)
					}
					victim.Enqueue(victim.Client(0))
					run(false)
				}
				// Another wave through the victim, so that its parents hold
				// newer waves than the ones the image will decline.
				driver.Dequeue(driver.Client(0))
				run(false)

				// The crash: the image through the codec, the second
				// incarnation in place of the first, the link replay first
				// in the queue.
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
					t.Fatal(err)
				}
				var decoded MemberSnapshot
				if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
					t.Fatal(err)
				}
				order := net.order[:0]
				for _, id := range net.order {
					if _, gone := victim.nodes[id]; !gone {
						order = append(order, id)
					}
				}
				net.order = order
				restored, err := RestoreMember(cfg, &decoded, net)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range fireLog {
					restored.ScriptFire(f.node, f.wave, f.folded)
				}
				if !cutServed {
					restored.Inject(restored.Client(0), Op{ReqID: victim.NextReqID() - 1})
				}
				members[vi] = restored
				net.queue = append(replay, net.queue...)
				net.settle(nil)

				restored.Dequeue(restored.Client(0))
				net.settle(nil)
				driver.Enqueue(driver.Client(0))
				net.settle(nil)
				// A completion is recorded where the element is stored or the
				// GET is answered, so only the merged history tells.
				merged := &seqcheck.History{}
				all := make(map[transport.NodeID]*Node)
				for _, cl := range members {
					merged.Ops = append(merged.Ops, cl.History().Ops...)
					maps.Copy(all, cl.nodes)
				}
				if len(merged.Ops) != 4 {
					for _, cl := range members {
						for _, d := range cl.Diagnose() {
							t.Log(d)
						}
					}
					t.Fatalf("merged history holds %d operations with no tick after the restore, want each of the 4 once: %+v", len(merged.Ops), merged.Ops)
				}
				if err := restored.newDiscipline().check(merged); err != nil {
					t.Fatal(err)
				}
				for _, n := range all {
					if n.standing != idle {
						t.Errorf("%v does not stand idle again", n.self)
					}
					if parent, ok := n.nb().Parent(); ok && !all[parent.ID].standsIdle(n.self.ID) {
						t.Errorf("%v stands idle but %v waits for it", n.self, parent)
					}
				}
			})
		}
	}
}

// TestEpochReachesIdleSubtree: a node that declined is in no wave, so an
// update phase reaches it in a serve that answers no batch. It enters the
// phase as if an empty wave of its own had been served, hands the epoch to
// every child — all of them idle — and waits for as many acknowledgments.
func TestEpochReachesIdleSubtree(t *testing.T) {
	net := newMemNet(t)
	cl, err := NewMember(Config{Processes: 2, Seed: 7}, 0, []int32{0, 1}, net)
	if err != nil {
		t.Fatal(err)
	}
	net.tick()
	net.settle(nil)
	var x *Node
	for _, n := range cl.nodes {
		if !n.anchorRole && len(n.children()) > 0 && (x == nil || n.self.ID < x.self.ID) {
			x = n
		}
	}
	kids := x.children()
	parent, _ := x.nb().Parent()
	x.OnMessage(net.ctxs[x.self.ID], parent.ID, serveMsg{UpdateEpoch: 1})
	c := &x.churn
	if !c.updatePhase || c.epoch != 1 || c.pold != parent.ID {
		t.Fatalf("%v did not enter phase 1 from %v: updatePhase=%v epoch=%d pold=%v", x.self, parent, c.updatePhase, c.epoch, c.pold)
	}
	if c.acksLeft != len(kids) {
		t.Fatalf("%v waits for %d acknowledgments, want one per idle child (%d)", x.self, c.acksLeft, len(kids))
	}
	if x.standing != active || len(x.idleKids) != 0 {
		t.Fatalf("%v kept its standing across the phase entry: %v, idle children %v", x.self, x.standing, x.idleKids)
	}
	handed := map[transport.NodeID]bool{}
	for _, e := range net.queue {
		if m, ok := e.payload.(serveMsg); ok && e.from == x.self.ID {
			if m.UpdateEpoch != 1 || m.WaveSeq != 0 || len(m.Assigns) != 0 {
				t.Fatalf("%v handed down %+v, want the bare epoch", x.self, m)
			}
			handed[e.to] = true
		}
	}
	for _, k := range kids {
		if !handed[k.ID] {
			t.Fatalf("idle child %v of %v was not handed the epoch", k, x.self)
		}
	}
}

// churnNet hosts a whole cluster on one memNet that interleaves its links,
// with every diagnostic a networked member logs when it meets a restart
// duplicate turned into a failure: nothing restarts here.
func churnNet(t *testing.T, cfg Config, seed int64) (*Cluster, *memNet) {
	t.Helper()
	net := newMemNet(t)
	net.interleave = xrand.New(seed)
	pids := make([]int32, cfg.Processes)
	for i := range pids {
		pids[i] = int32(i)
	}
	cl, err := NewMember(cfg, 0, pids, net)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetLogf(func(format string, args ...any) {
		if msg := fmt.Sprintf(format, args...); strings.Contains(msg, "restart replay") {
			t.Errorf("without any restart: %s", msg)
		}
	})
	return cl, net
}

// TestChurnReachesIdleSubtrees: a join and a leave issued into a cluster
// that has stood idle for 100 ticks, on a backend that offers the readiness
// hook after every delivery. The level is announced on the tick of the node
// that holds it, the flagged serve is handed through the idle subtrees,
// every node that was there enters the update phase and leaves it again,
// and the change settles within the ticks the handshakes themselves need.
// Afterwards the tree is rebuilt: one wave from the tick, then silence
// again, and operations still cost no tick.
func TestChurnReachesIdleSubtrees(t *testing.T) {
	for _, tc := range threeDisciplines {
		for _, leave := range []bool{false, true} {
			name := tc.name + "/join"
			if leave {
				name = tc.name + "/leave"
			}
			t.Run(name, func(t *testing.T) {
				cfg := tc.cfg
				cfg.Processes, cfg.Seed = 4, 105
				cl, net := churnNet(t, cfg, 1)
				for i := 0; i < 100; i++ {
					net.tick()
					net.settle(nil)
				}
				if m := cl.Metrics(); m.WavesAssigned != 1 || m.Declines != int64(len(cl.nodes))-1 {
					t.Fatalf("after 100 idle ticks: %d waves, %d declines", m.WavesAssigned, m.Declines)
				}
				old := make(map[transport.NodeID]*Node, len(cl.nodes))
				for id, n := range cl.nodes {
					old[id] = n
				}
				entered := make(map[transport.NodeID]bool)
				if leave {
					cl.LeaveProcess(2)
				} else {
					cl.JoinProcess(0)
				}
				// A join needs the tick on which the responsible nodes
				// announce their level; a leave needs one each for the
				// request, the grant, the handoff and the replacement's
				// level. Twice that is the bound.
				ticks := 0
				for ; !(cl.ChurnQuiescent() && cl.VerifyTopology() == nil); ticks++ {
					if ticks == 8 {
						for _, d := range cl.Diagnose() {
							t.Log(d)
						}
						t.Fatalf("churn into an idle cluster has not settled after %d ticks", ticks)
					}
					net.tick()
					net.settle(func() {
						for id, n := range old {
							if n.churn.updatePhase {
								entered[id] = true
							}
						}
					})
				}
				t.Logf("settled in %d ticks, %d update phases", ticks, cl.Metrics().UpdatePhases)
				for id, n := range old {
					if !entered[id] && !n.churn.departed {
						t.Errorf("%v never entered an update phase", n.self)
					}
					if n.churn.updatePhase {
						t.Errorf("%v never left its update phase", n.self)
					}
				}

				// The rebuilt tree goes silent again and still serves at once.
				for i := 0; i < 3; i++ {
					net.tick()
					net.settle(nil)
				}
				before, sent := cl.Metrics(), net.sent
				for i := 0; i < 20; i++ {
					net.tick()
					net.settle(nil)
				}
				if m := cl.Metrics(); m != before || net.sent != sent {
					t.Fatalf("the rebuilt tree keeps talking: %+v -> %+v, %d frames in 20 idle ticks", before, m, net.sent-sent)
				}
				clients := cl.ActiveClients()
				cl.Enqueue(clients[0])
				cl.Dequeue(clients[len(clients)-1])
				net.settle(nil)
				if cl.Finished() != cl.Issued() {
					t.Fatalf("%d of %d operations finished with no tick after the churn", cl.Finished(), cl.Issued())
				}
				if err := cl.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestChurnStormWorkDriven mixes joins, leaves and traffic on the same
// backend, with ticks falling between deliveries, so that epochs meet
// subtrees in every standing: idle, woken with a batch on its way, active.
// Every operation completes, elements are conserved and Definition 1 holds.
//
// A hundred consecutive seeds per discipline, none picked. A JOIN request is
// still under way when the next tick falls (nothing settles after
// JoinProcess), so a triad's middle node can be integrated ahead of its
// siblings — route their requests, and have a joiner for a tree parent —
// and a dissolveQuery can reach a sibling that has just left through its
// forwarder: the hazards of §IV as implemented that waves at message speed
// reach. Each has its own direct test (TestRouteAvoidsUnintegratedSibling,
// TestNodeHoldsBatchWhileParentJoins, TestDissolveQueryAnsweredToAsker); the
// storm is the check on what else of the kind is left (ROADMAP item 3).
func TestChurnStormWorkDriven(t *testing.T) {
	for _, tc := range threeDisciplines {
		for seed := int64(300); seed < 400; seed++ {
			cfg := tc.cfg
			cfg.Processes, cfg.Seed = 5, seed
			cl, net := churnNet(t, cfg, seed)
			rng := xrand.New(seed)
			// run delivers up to n frames with a readiness pass after each,
			// and then perhaps a tick: TIMEOUT falls anywhere between two
			// deliveries, but a tick is long against a hop.
			run := func(n int) {
				for ; n > 0 && len(net.queue) > 0; n-- {
					if e := net.pop(); net.nodes[e.to] != nil {
						if _, ok := e.payload.(aggregateMsg); ok && net.nodes[e.to].(*Node).churn.joining {
							// It would be bounced, re-fired and bounced again at
							// message speed until the sibling is integrated.
							t.Fatalf("%s seed %d: node %d fired into its parent %d, a sibling that is still joining", tc.name, seed, e.from, e.to)
						}
						net.nodes[e.to].OnMessage(net.ctxs[e.to], e.from, e.payload)
					}
					net.ready()
				}
				if rng.Bool(0.25) {
					net.tick()
					net.ready()
				}
			}
			enq, next := 0, 50
			changes := []func(){
				func() { cl.JoinProcess(0) },
				func() { cl.LeaveProcess(2) },
				func() { cl.JoinProcess(4) },
				func() { cl.LeaveProcess(1) },
			}
			for round := 0; round < 400 || len(changes) > 0; round++ {
				if round == 4000 {
					for _, d := range cl.Diagnose() {
						t.Log(d)
					}
					t.Fatalf("%s seed %d: a change has not settled in %d rounds, %d still to issue", tc.name, seed, round, len(changes))
				}
				if clients := cl.ActiveClients(); len(clients) > 0 && rng.Bool(0.5) {
					c := clients[rng.Intn(len(clients))]
					if rng.Bool(0.6) {
						cl.Enqueue(c)
						enq++
					} else {
						cl.Dequeue(c)
					}
				}
				// One change at a time: the next is issued once the last one
				// has settled, traffic running throughout.
				if round >= next && len(changes) > 0 && cl.ChurnQuiescent() {
					changes[0]()
					changes, next = changes[1:], round+60
				}
				run(rng.Intn(60))
			}
			for i := 0; !(cl.ChurnQuiescent() && cl.VerifyTopology() == nil && treeAgreement(cl) == nil && cl.Finished() == cl.Issued()); i++ {
				if i == 200 {
					for _, d := range cl.Diagnose() {
						t.Log(d)
					}
					t.Fatalf("%s seed %d: not settled: quiescent=%v topology=%v tree=%v finished %d/%d",
						tc.name, seed, cl.ChurnQuiescent(), cl.VerifyTopology(), treeAgreement(cl), cl.Finished(), cl.Issued())
				}
				net.tick()
				net.settle(nil)
			}
			if err := cl.CheckConsistency(); err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			st := seqcheck.Summarize(cl.History())
			if out := st.Dequeues - st.Bottoms; out+cl.TotalStored() != enq {
				t.Fatalf("%s seed %d: %d elements out + %d stored != %d in", tc.name, seed, out, cl.TotalStored(), enq)
			}
		}
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
			if len(n.inFlight) != 0 {
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
