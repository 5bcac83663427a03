package server_test

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"skueue"
	"skueue/internal/server"
	"skueue/internal/wire"
)

// startCluster boots a members-process loopback cluster. Listeners are
// pre-bound so every member knows the full address list before any of
// them starts.
func startCluster(t *testing.T, members int, mode string) []*server.Server {
	t.Helper()
	lis := make([]net.Listener, members)
	addrs := make([]string, members)
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lis[i] = l
		addrs[i] = l.Addr().String()
	}
	srvs := make([]*server.Server, members)
	for i := range srvs {
		s, err := server.New(server.Config{
			Listener: lis[i],
			Seed:     42,
			Mode:     mode,
			Index:    i,
			Members:  addrs,
			Tick:     500 * time.Microsecond,
		})
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		srvs[i] = s
		t.Cleanup(s.Close)
	}
	return srvs
}

// TestLoopbackClusterSequentialConsistency is the acceptance test of the
// networked deployment: a 3-member TCP cluster serves interleaved
// enqueues and dequeues from concurrent remote clients (two per member),
// every dequeued value must be one that some client enqueued, and the
// merged execution history must pass the Definition 1 checker.
func TestLoopbackClusterSequentialConsistency(t *testing.T) {
	srvs := startCluster(t, 3, "queue")

	const clientsPerMember = 2
	const opsPerClient = 24

	var mu sync.Mutex
	enqueued := make(map[string]bool)
	dequeued := make(map[string]bool)

	var wg sync.WaitGroup
	errs := make(chan error, len(srvs)*clientsPerMember)
	for m, s := range srvs {
		for k := 0; k < clientsPerMember; k++ {
			wg.Add(1)
			go func(member, cli int, addr string) {
				defer wg.Done()
				c, err := skueue.Open(skueue.WithRemote(addr))
				if err != nil {
					errs <- fmt.Errorf("client %d.%d: open: %w", member, cli, err)
					return
				}
				defer c.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				for i := 0; i < opsPerClient; i++ {
					if i%2 == 0 {
						v := fmt.Sprintf("v-%d.%d.%d", member, cli, i)
						if err := c.Enqueue(ctx, v); err != nil {
							errs <- fmt.Errorf("client %d.%d: enqueue %d: %w", member, cli, i, err)
							return
						}
						mu.Lock()
						enqueued[v] = true
						mu.Unlock()
					} else {
						v, ok, err := c.Dequeue(ctx)
						if err != nil {
							errs <- fmt.Errorf("client %d.%d: dequeue %d: %w", member, cli, i, err)
							return
						}
						if ok {
							s, isStr := v.(string)
							if !isStr {
								errs <- fmt.Errorf("client %d.%d: dequeued %T, want string", member, cli, v)
								return
							}
							mu.Lock()
							if dequeued[s] {
								errs <- fmt.Errorf("client %d.%d: value %q dequeued twice", member, cli, s)
								mu.Unlock()
								return
							}
							dequeued[s] = true
							mu.Unlock()
						}
					}
				}
			}(m, k, s.Addr())
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every dequeued value was enqueued by some client, across members.
	mu.Lock()
	for v := range dequeued {
		if !enqueued[v] {
			t.Errorf("dequeued %q was never enqueued", v)
		}
	}
	mu.Unlock()

	// Merge all member histories and verify Definition 1 end to end.
	c, err := skueue.Open(skueue.WithRemote(srvs[0].Addr()))
	if err != nil {
		t.Fatalf("checker client: %v", err)
	}
	defer c.Close()
	if err := c.Check(); err != nil {
		t.Fatalf("sequential consistency check failed: %v", err)
	}
	st := c.Stats()
	wantTotal := len(srvs) * clientsPerMember * opsPerClient
	if st.Total != wantTotal {
		t.Fatalf("merged history has %d completions, want %d", st.Total, wantTotal)
	}
}

// TestLoopbackClusterStackMode runs the same deployment with LIFO
// semantics, exercising tickets, the stage-4 wait and local combining
// over the network.
func TestLoopbackClusterStackMode(t *testing.T) {
	srvs := startCluster(t, 3, "stack")
	c, err := skueue.Open(skueue.WithRemote(srvs[1].Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 8; i++ {
		if err := c.Push(ctx, i); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, ok, err := c.Pop(ctx); err != nil || !ok {
			t.Fatalf("pop %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := c.Check(); err != nil {
		t.Fatalf("stack check: %v", err)
	}
}

// TestJoinServer admits a fourth member into a running 3-member cluster
// through the seed handshake and the §IV-A JOIN protocol, then serves a
// client through the newcomer. The cluster has stood idle for 100 ticks by
// then: the join level is announced on a tick, the update phase is handed
// through subtrees that are in no wave, and when it is over no node of the
// old members is left inside it.
func TestJoinServer(t *testing.T) {
	const tick = 500 * time.Microsecond
	srvs := startCluster(t, 3, "queue")
	time.Sleep(100 * tick)

	start := time.Now()
	joiner, err := server.New(server.Config{
		Addr: "127.0.0.1:0",
		Join: srvs[0].Addr(),
		Tick: tick,
	})
	if err != nil {
		t.Fatalf("joining server: %v", err)
	}
	t.Cleanup(joiner.Close)

	c, err := skueue.Open(skueue.WithRemote(joiner.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Enqueue(ctx, "via-joiner"); err != nil {
		t.Fatalf("enqueue via joiner: %v", err)
	}
	v, ok, err := c.Dequeue(ctx)
	if err != nil || !ok || v != "via-joiner" {
		t.Fatalf("dequeue via joiner: v=%v ok=%v err=%v", v, ok, err)
	}
	// With every node reporting every tick the join took well under a
	// second on a loaded machine; into silence it may take no longer.
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("joining an idle cluster and serving through the newcomer took %v", took)
	}
	old, err := skueue.Open(skueue.WithRemote(srvs[2].Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := old.Enqueue(ctx, "via-old"); err != nil {
		t.Fatalf("enqueue via an old member after the join: %v", err)
	}
	if v, ok, err := c.Dequeue(ctx); err != nil || !ok || v != "via-old" {
		t.Fatalf("dequeue via joiner: v=%v ok=%v err=%v", v, ok, err)
	}
	time.Sleep(20 * tick)
	for i, s := range append(srvs, joiner) {
		for _, d := range s.Diagnose() {
			t.Errorf("member %d after the join: %s", i, d)
		}
	}
	if err := c.Check(); err != nil {
		t.Fatalf("post-join check: %v", err)
	}
}

// TestSingleMemberSmoke is the minimal networked deployment: one member,
// one client, one enqueue and one dequeue.
func TestSingleMemberSmoke(t *testing.T) {
	srvs := startCluster(t, 1, "queue")
	c, err := skueue.Open(skueue.WithRemote(srvs[0].Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := c.Enqueue(ctx, "x"); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	v, ok, err := c.Dequeue(ctx)
	if err != nil || !ok || v != "x" {
		t.Fatalf("dequeue: v=%v ok=%v err=%v", v, ok, err)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestJoinerLogsItsAdmittedIndex pins the log tag of the connection
// handlers: a joined member's Config.Index is 0 (only bootstrap members
// set it), so its diagnostics must carry the index the seed admitted it
// under, like the rest of the member's log lines.
func TestJoinerLogsItsAdmittedIndex(t *testing.T) {
	srvs := startCluster(t, 1, "queue")
	lines := make(chan string, 1)
	joiner, err := server.New(server.Config{
		Addr: "127.0.0.1:0",
		Join: srvs[0].Addr(),
		Tick: 500 * time.Microsecond,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "first frame was") {
				lines <- fmt.Sprintf(format, args...)
			}
		},
	})
	if err != nil {
		t.Fatalf("joining server: %v", err)
	}
	t.Cleanup(joiner.Close)

	nc, err := net.Dial("tcp", joiner.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(nc)
	defer conn.Close()
	if err := conn.Write(wire.CliDequeue{}); err != nil { // anything but a Hello
		t.Fatal(err)
	}
	const want = "server[1]: first frame was wire.CliDequeue, closing"
	select {
	case line := <-lines:
		if line != want {
			t.Fatalf("log line %q, want %q", line, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("no %q line logged", want)
	}
}
