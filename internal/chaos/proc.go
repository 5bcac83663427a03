package chaos

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"skueue"
	"skueue/internal/core"
	"skueue/internal/seqcheck"
	"skueue/internal/xrand"
)

// ProcScenario configures a multi-process chaos run: a durable
// skueue-server cluster on loopback, worker clients driving mixed traffic
// through the remote client layer, and a kill/restart storm aimed inside
// journal group-commit windows.
type ProcScenario struct {
	// Bin is the path to a skueue-server binary (tests build one with
	// `go build`; the CLI defaults to `go run`-style lookup by the caller).
	Bin string
	// Members is the cluster size (member 0 is the seed and never dies).
	Members int
	// Mode is "queue", "stack" or "heap".
	Mode string
	// HeapLevels is the number of priority levels in heap mode (default
	// 4). Heap workers spread enqueues uniformly over the levels and
	// dequeue with DequeueMin; the post-storm accounting is then kept per
	// level (ProcResult.Levels) on top of the global element accounting.
	HeapLevels int
	Seed       int64
	// Workers and OpsPerWorker size the client traffic; EnqRatio is the
	// probability an op is an enqueue/push.
	Workers      int
	OpsPerWorker int
	EnqRatio     float64
	// Sessions drives the traffic through durable client sessions
	// (WithSession + WithReconnect): a kill no longer tears a worker's
	// pending operations down — the client resumes the session at the
	// restarted owner and collects the journaled outcomes exactly once.
	// Each worker's session order is verified against the merged history
	// after the storm (seqcheck.CheckSession via Client.Check).
	Sessions bool
	// Storm's Members and Seed fields are filled in from the scenario.
	Storm StormSpec
	// WANLatency/WANJitter/WANLoss shape every member's inbound peer
	// traffic (skueue-server -wan-* flags).
	WANLatency, WANJitter time.Duration
	WANLoss               float64
	// Server tuning; zero values pick the server defaults.
	SnapshotEvery     time.Duration
	Tick              time.Duration
	GiveUp            time.Duration
	JournalBatchDelay time.Duration
	// BaseDir holds state directories and member logs (default: a fresh
	// temp dir the caller is responsible for cleaning up).
	BaseDir string
	// OpTimeout bounds one client operation (default 60s: an op caught by
	// a kill stalls until the victim replays its journal and rejoins).
	OpTimeout time.Duration
	Logf      func(format string, args ...any)
}

// ProcResult is the outcome of a multi-process chaos run after exact
// element accounting and the Definition 1 check both passed.
type ProcResult struct {
	Members int
	// Ops counts client-confirmed operations (workers + drain).
	Ops     int
	Bottoms int
	// Confirmed / MaybeEnqueued / IndetDequeues describe the accounting
	// universe: values whose enqueue confirmed, values whose enqueue was
	// cut off mid-flight (outcome unknown), and dequeues whose answer was
	// lost (each may have consumed at most one element server-side).
	Confirmed     int
	MaybeEnqueued int
	IndetDequeues int
	// Drained counts elements recovered by the post-storm drain.
	Drained int
	// Levels is the per-priority-level slice of the accounting universe
	// (heap runs only): each level's confirmed/maybe enqueues, dequeues,
	// and confirmed-but-undequeued elements. The sum of Missing across
	// levels is bounded by IndetDequeues, like the global check.
	Levels  map[int32]*LevelTally
	Hist    *Histogram // microseconds
	Elapsed time.Duration
	// OpsPerSec counts confirmed ops per wall-clock second of the traffic
	// phase.
	OpsPerSec float64
	Faults    FaultSummary
	Stats     skueue.Stats
}

// LevelTally is one priority level's element accounting (heap runs).
type LevelTally struct {
	Confirmed int // enqueues confirmed at this level
	Maybe     int // enqueues cut off mid-flight at this level
	Dequeued  int // elements of this level dequeued (workers + drain)
	Missing   int // confirmed at this level but never seen again
}

// Point converts the result into a BENCH point.
func (r *ProcResult) Point() Point {
	return Point{
		Members:     r.Members,
		Ops:         r.Ops,
		Bottoms:     r.Bottoms,
		ElapsedSec:  r.Elapsed.Seconds(),
		OpsPerSec:   r.OpsPerSec,
		LatencyUnit: r.Hist.Unit(),
		P50:         r.Hist.P50(),
		P99:         r.Hist.P99(),
		P999:        r.Hist.P999(),
		MaxLatency:  r.Hist.Max(),
		MeanLatency: r.Hist.Mean(),
		Faults:      r.Faults,
	}
}

// procMember is one skueue-server process slot.
type procMember struct {
	index int
	addr  string
	dir   string
	boot  int
	cmd   *exec.Cmd
	alive bool
}

// ProcCluster manages the skueue-server processes of one scenario.
//
//skueue:lock 90
type ProcCluster struct {
	sc   ProcScenario
	base string
	mu   sync.Mutex
	m    []*procMember
	logf func(format string, args ...any)
}

// freeAddrs reserves n distinct loopback ports. All n listeners are held
// open until every port is picked: binding and closing one at a time lets
// the kernel hand the same just-freed ephemeral port out twice, and a
// duplicate bootstrap address silently cripples the cluster (the
// duplicate member fails to bind while its readiness dial succeeds
// against the other member's listener). The window between the final
// release and the servers' own binds is the standard pre-pick race.
func freeAddrs(n int) ([]string, error) {
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// StartProcCluster boots the scenario's cluster and waits until every
// member accepts connections.
func StartProcCluster(sc ProcScenario) (*ProcCluster, error) {
	if sc.Members < 2 {
		return nil, fmt.Errorf("chaos: proc cluster needs >= 2 members (have %d)", sc.Members)
	}
	if sc.Bin == "" {
		return nil, fmt.Errorf("chaos: proc cluster needs a skueue-server binary path")
	}
	base := sc.BaseDir
	if base == "" {
		var err error
		if base, err = os.MkdirTemp("", "skueue-chaos-*"); err != nil {
			return nil, err
		}
	}
	logf := sc.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &ProcCluster{sc: sc, base: base, logf: logf}
	addrs, err := freeAddrs(sc.Members)
	if err != nil {
		return nil, err
	}
	for i := 0; i < sc.Members; i++ {
		m := &procMember{
			index: i,
			addr:  addrs[i],
			dir:   filepath.Join(base, fmt.Sprintf("m%d", i)),
		}
		if err := os.MkdirAll(m.dir, 0o755); err != nil {
			return nil, err
		}
		c.m = append(c.m, m)
	}
	for i, m := range c.m {
		args := append(c.commonArgs(m),
			"-index", fmt.Sprint(i),
			"-members", joinAddrs(addrs),
		)
		if err := c.spawn(m, args); err != nil {
			c.Stop()
			return nil, err
		}
	}
	for _, m := range c.m {
		if err := c.waitReady(m, 30*time.Second); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

func joinAddrs(addrs []string) string {
	out := ""
	for i, a := range addrs {
		if i > 0 {
			out += ","
		}
		out += a
	}
	return out
}

// commonArgs are the flags shared by bootstrap and restart starts.
func (c *ProcCluster) commonArgs(m *procMember) []string {
	sc := c.sc
	args := []string{
		"-addr", m.addr,
		"-seed", fmt.Sprint(sc.Seed),
		"-mode", sc.Mode,
		"-state", m.dir,
		"-v",
	}
	if sc.HeapLevels > 0 {
		args = append(args, "-heap-levels", fmt.Sprint(sc.HeapLevels))
	}
	if sc.SnapshotEvery > 0 {
		args = append(args, "-snapshot-every", sc.SnapshotEvery.String())
	}
	if sc.Tick > 0 {
		args = append(args, "-tick", sc.Tick.String())
	}
	if sc.GiveUp > 0 {
		args = append(args, "-give-up", sc.GiveUp.String())
	}
	if sc.JournalBatchDelay > 0 {
		args = append(args, "-journal-batch-delay", sc.JournalBatchDelay.String())
	}
	if sc.WANLatency > 0 {
		args = append(args, "-wan-latency", sc.WANLatency.String())
	}
	if sc.WANJitter > 0 {
		args = append(args, "-wan-jitter", sc.WANJitter.String())
	}
	if sc.WANLoss > 0 {
		args = append(args, "-wan-loss", fmt.Sprint(sc.WANLoss))
	}
	return args
}

// spawn starts one member process, logging to m<idx>.boot<N>.log.
func (c *ProcCluster) spawn(m *procMember, args []string) error {
	m.boot++
	logPath := filepath.Join(c.base, fmt.Sprintf("m%d.boot%d.log", m.index, m.boot))
	logFile, err := os.Create(logPath)
	if err != nil {
		return err
	}
	cmd := exec.Command(c.sc.Bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return fmt.Errorf("chaos: starting member %d: %w", m.index, err)
	}
	go func() {
		cmd.Wait() // reap; exit status is uninteresting (kills are -9)
		logFile.Close()
	}()
	c.mu.Lock()
	m.cmd = cmd
	m.alive = true
	c.mu.Unlock()
	c.logf("chaos: member %d up (boot %d, pid %d, %s)", m.index, m.boot, cmd.Process.Pid, m.addr)
	return nil
}

func (c *ProcCluster) waitReady(m *procMember, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", m.addr, time.Second)
		if err == nil {
			conn.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: member %d (%s) not accepting after %v: %w", m.index, m.addr, timeout, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// SeedAddr returns the seed member's address.
func (c *ProcCluster) SeedAddr() string { return c.m[0].addr }

// LiveAddr returns the address of a random live member.
func (c *ProcCluster) LiveAddr(rng *xrand.RNG) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var live []string
	for _, m := range c.m {
		if m.alive {
			live = append(live, m.addr)
		}
	}
	if len(live) == 0 {
		return "", false
	}
	return live[rng.Intn(len(live))], true
}

// Kill SIGKILLs member i — a real fail-stop crash: staged journal batches
// whose fsync has not returned are lost, exactly the window the storm
// schedule aims for.
func (c *ProcCluster) Kill(i int) error {
	c.mu.Lock()
	m := c.m[i]
	if !m.alive {
		c.mu.Unlock()
		return fmt.Errorf("chaos: kill of member %d while down", i)
	}
	m.alive = false
	cmd := m.cmd
	c.mu.Unlock()
	c.logf("chaos: killing member %d (pid %d)", i, cmd.Process.Pid)
	return cmd.Process.Kill()
}

// Restart brings member i back from its state directory on a fresh port,
// rejoining through the seed (the PR 4 fail-stop recovery path).
func (c *ProcCluster) Restart(i int) error {
	c.mu.Lock()
	m := c.m[i]
	if m.alive {
		c.mu.Unlock()
		return fmt.Errorf("chaos: restart of member %d while alive", i)
	}
	c.mu.Unlock()
	// Pick a fresh port that does not collide with any current member
	// (the released listener's port can be re-handed to us).
	var addr string
	for {
		addrs, err := freeAddrs(1)
		if err != nil {
			return err
		}
		addr = addrs[0]
		c.mu.Lock()
		dup := false
		for _, other := range c.m {
			if other != m && other.addr == addr {
				dup = true
			}
		}
		c.mu.Unlock()
		if !dup {
			break
		}
	}
	m.addr = addr
	args := append(c.commonArgs(m), "-join", c.SeedAddr())
	if err := c.spawn(m, args); err != nil {
		return err
	}
	return c.waitReady(m, 30*time.Second)
}

// Stop kills every process and leaves state directories behind for
// post-mortems.
func (c *ProcCluster) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.m {
		if m.cmd != nil && m.alive {
			m.cmd.Process.Kill()
			m.alive = false
		}
	}
}

// BaseDir returns the scenario's state/log directory.
func (c *ProcCluster) BaseDir() string { return c.base }

// workerTally is one worker's private accounting, merged after the run.
type workerTally struct {
	confirmed map[string]bool
	maybeEnq  map[string]bool
	dequeued  []string
	bottoms   int
	indetDeq  int
	hist      *Histogram
}

// RunProc executes a full multi-process chaos scenario: boot, traffic
// under the storm, drain, exact element accounting, Definition 1 check.
func RunProc(sc ProcScenario) (*ProcResult, error) {
	if sc.Workers < 1 || sc.OpsPerWorker < 1 {
		return nil, fmt.Errorf("chaos: proc scenario needs workers and ops (%+v)", sc)
	}
	if sc.Mode == "" {
		sc.Mode = "queue"
	}
	if sc.Mode == "heap" && sc.HeapLevels <= 0 {
		sc.HeapLevels = 4
	}
	if sc.OpTimeout <= 0 {
		sc.OpTimeout = 60 * time.Second
	}
	sc.Storm.Members = sc.Members
	sc.Storm.Seed = sc.Seed
	// Spare the anchor-hosting member: the anchor role is a singleton
	// that dies with its process, and fail-stop recovery restores a
	// member's queue state, not a role it was holding. The harness boots
	// one process per member, so the anchor's process ID is its member
	// index.
	sc.Storm.Avoid = append(sc.Storm.Avoid, int(core.AnchorProcess(sc.Seed, sc.Members))%sc.Members)
	var schedule []Fault
	if sc.Storm.Kills > 0 {
		var err error
		if schedule, err = sc.Storm.Schedule(); err != nil {
			return nil, err
		}
	}
	cluster, err := StartProcCluster(sc)
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()
	logf := cluster.logf

	// Fault storm, clocked from traffic start.
	var faults FaultSummary
	stormDone := make(chan error, 1)
	start := time.Now()
	go func() {
		for _, f := range schedule {
			time.Sleep(time.Until(start.Add(f.At)))
			switch f.Kind {
			case Kill:
				if err := cluster.Kill(f.Member); err != nil {
					stormDone <- err
					return
				}
				faults.Kills++
			case Restart:
				if err := cluster.Restart(f.Member); err != nil {
					stormDone <- err
					return
				}
				faults.Restarts++
			}
		}
		stormDone <- nil
	}()

	// Traffic: each worker drives a remote client, redialing a live
	// member whenever a kill tears its connection down (ephemeral mode)
	// or letting the session layer reconnect underneath it (Sessions).
	tallies := make([]*workerTally, sc.Workers)
	sessClients := make([]*skueue.Client, sc.Workers)
	var wg sync.WaitGroup
	for w := 0; w < sc.Workers; w++ {
		w := w
		tallies[w] = &workerTally{
			confirmed: make(map[string]bool),
			maybeEnq:  make(map[string]bool),
			hist:      NewHistogram("us"),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sc.Sessions {
				sessClients[w] = runSessionWorker(cluster, sc, w, tallies[w])
			} else {
				runWorker(cluster, sc, w, tallies[w])
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := <-stormDone; err != nil {
		return nil, fmt.Errorf("chaos: storm execution: %w", err)
	}

	// Per-session order check: every outcome each session observed must
	// exist in the merged history at the rank it was delivered with, in
	// the session's dependency order — across however many kills and
	// resumes the storm inflicted on its owner.
	for w, cl := range sessClients {
		if cl == nil {
			continue
		}
		err := cl.Check()
		if err != nil {
			dumpHistory(cluster, cl)
			cl.Close()
			return nil, fmt.Errorf("chaos: session check (worker %d): %w", w, err)
		}
		cl.Close()
	}

	// Merge the accounting universe.
	confirmed := make(map[string]bool)
	maybeEnq := make(map[string]bool)
	dequeued := make(map[string]int)
	hist := NewHistogram("us")
	res := &ProcResult{Members: sc.Members, Faults: faults, Elapsed: elapsed, Hist: hist}
	for _, t := range tallies {
		for v := range t.confirmed {
			confirmed[v] = true
		}
		for v := range t.maybeEnq {
			maybeEnq[v] = true
		}
		for _, v := range t.dequeued {
			dequeued[v]++
		}
		res.Bottoms += t.bottoms
		res.IndetDequeues += t.indetDeq
		hist.Merge(t.hist)
	}

	// Drain the queue empty so every confirmed element is accounted for.
	drained, stats, err := drainAndCheck(cluster, sc, dequeued)
	if err != nil {
		return nil, err
	}
	res.Drained = drained
	res.Confirmed = len(confirmed)
	res.MaybeEnqueued = len(maybeEnq)
	res.Ops = int(hist.Count()) + drained
	res.OpsPerSec = float64(hist.Count()) / elapsed.Seconds()
	res.Stats = stats

	// Exact element accounting.
	var missing []string
	for v := range confirmed {
		if dequeued[v] == 0 {
			missing = append(missing, v)
		}
	}
	sort.Strings(missing)
	for v, n := range dequeued {
		if n > 1 {
			return nil, fmt.Errorf("chaos: element %q dequeued %d times", v, n)
		}
		if !confirmed[v] && !maybeEnq[v] {
			return nil, fmt.Errorf("chaos: dequeued element %q was never enqueued", v)
		}
	}
	// A confirmed element may only be missing client-side if one of the
	// indeterminate dequeues consumed it (the answer died with the
	// connection, the element is validly gone).
	if len(missing) > res.IndetDequeues {
		show := missing
		if len(show) > 8 {
			show = show[:8]
		}
		return nil, fmt.Errorf("chaos: %d confirmed elements unaccounted for (> %d indeterminate dequeues): %v",
			len(missing), res.IndetDequeues, show)
	}
	// Server-side cross-check: the merged history must hold every
	// confirmed enqueue and no more than confirmed+maybe.
	if stats.Enqueues < len(confirmed) || stats.Enqueues > len(confirmed)+len(maybeEnq) {
		return nil, fmt.Errorf("chaos: history has %d enqueues, client accounting allows [%d, %d]",
			stats.Enqueues, len(confirmed), len(confirmed)+len(maybeEnq))
	}
	// Heap runs additionally account per priority level: every value
	// carries its level, so each level's confirmed/maybe/dequeued slice
	// must balance on its own — a level overdrawn (more dequeues than
	// enqueues that could have fed it) is a discipline bug even when the
	// global totals happen to cancel out.
	if sc.Mode == "heap" {
		levels := make(map[int32]*LevelTally)
		at := func(pri int32) *LevelTally {
			lt := levels[pri]
			if lt == nil {
				lt = &LevelTally{}
				levels[pri] = lt
			}
			return lt
		}
		tally := func(set map[string]bool, count func(*LevelTally)) error {
			for v := range set {
				pri, ok := valueLevel(v)
				if !ok || int(pri) >= sc.HeapLevels {
					return fmt.Errorf("chaos: heap value %q carries no valid level", v)
				}
				count(at(pri))
			}
			return nil
		}
		if err := tally(confirmed, func(lt *LevelTally) { lt.Confirmed++ }); err != nil {
			return nil, err
		}
		if err := tally(maybeEnq, func(lt *LevelTally) { lt.Maybe++ }); err != nil {
			return nil, err
		}
		for v, n := range dequeued {
			pri, ok := valueLevel(v)
			if !ok || int(pri) >= sc.HeapLevels {
				return nil, fmt.Errorf("chaos: dequeued heap value %q carries no valid level", v)
			}
			at(pri).Dequeued += n
		}
		for _, v := range missing {
			pri, _ := valueLevel(v)
			at(pri).Missing++
		}
		for pri, lt := range levels {
			if lt.Dequeued > lt.Confirmed+lt.Maybe {
				return nil, fmt.Errorf("chaos: level %d overdrawn: %d dequeued, only %d confirmed + %d maybe enqueued",
					pri, lt.Dequeued, lt.Confirmed, lt.Maybe)
			}
			logf("chaos: level %d: %d confirmed, %d maybe, %d dequeued, %d missing",
				pri, lt.Confirmed, lt.Maybe, lt.Dequeued, lt.Missing)
		}
		res.Levels = levels
	}
	logf("chaos: proc run ok: %d confirmed, %d maybe, %d indet dequeues, %d drained, %d kills",
		res.Confirmed, res.MaybeEnqueued, res.IndetDequeues, res.Drained, faults.Kills)
	return res, nil
}

// runWorker drives one client's share of the traffic, tolerating
// connection loss from kills by redialing a live member.
func runWorker(cluster *ProcCluster, sc ProcScenario, id int, t *workerTally) {
	rng := xrand.New(sc.Seed ^ int64(id)<<21).Fork("worker")
	var c *skueue.Client
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	redial := func() bool {
		if c != nil {
			c.Close()
			c = nil
		}
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			addr, ok := cluster.LiveAddr(rng)
			if ok {
				cl, err := skueue.Open(skueue.WithRemote(addr))
				if err == nil {
					c = cl
					return true
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		return false
	}
	for i := 0; i < sc.OpsPerWorker; i++ {
		if c == nil && !redial() {
			return // cluster unreachable; accounting will catch real loss
		}
		ctx, cancel := context.WithTimeout(context.Background(), sc.OpTimeout)
		if rng.Bool(sc.EnqRatio) {
			v, pri := chaosValue(sc, rng, id, i)
			t0 := time.Now()
			var err error
			if sc.HeapLevels > 0 {
				err = c.EnqueuePri(ctx, pri, v)
			} else {
				err = c.Enqueue(ctx, v)
			}
			if err == nil {
				t.confirmed[v] = true
				t.hist.Record(time.Since(t0).Microseconds())
			} else {
				// The connection (or the op) died mid-flight: the enqueue
				// may or may not have committed server-side.
				t.maybeEnq[v] = true
				c.Close()
				c = nil
			}
		} else {
			t0 := time.Now()
			var v any
			var ok bool
			var err error
			if sc.HeapLevels > 0 {
				v, ok, err = c.DequeueMin(ctx)
			} else {
				v, ok, err = c.Dequeue(ctx)
			}
			if err == nil {
				if ok {
					if s, isStr := v.(string); isStr {
						t.dequeued = append(t.dequeued, s)
					}
				} else {
					t.bottoms++
				}
				t.hist.Record(time.Since(t0).Microseconds())
			} else {
				// The answer died with the connection; the dequeue may
				// have consumed an element whose identity is unknown.
				t.indetDeq++
				c.Close()
				c = nil
			}
		}
		cancel()
	}
}

// chaosValue names one worker enqueue. Heap runs pick a uniform priority
// level and bake it into the value ("w3-17@L2"), so the per-level
// accounting can be reconstructed from the values alone after the storm.
func chaosValue(sc ProcScenario, rng *xrand.RNG, id, i int) (string, int32) {
	if sc.HeapLevels > 0 {
		pri := int32(rng.Intn(sc.HeapLevels))
		return fmt.Sprintf("w%d-%d@L%d", id, i, pri), pri
	}
	return fmt.Sprintf("w%d-%d", id, i), 0
}

// valueLevel recovers the priority level a heap value was enqueued at.
func valueLevel(v string) (int32, bool) {
	i := strings.LastIndex(v, "@L")
	if i < 0 {
		return 0, false
	}
	var pri int32
	if _, err := fmt.Sscanf(v[i+2:], "%d", &pri); err != nil {
		return 0, false
	}
	return pri, true
}

// runSessionWorker drives one worker's traffic through a durable session:
// reconnects and resumes happen inside the client (WithReconnect), so a
// kill mid-operation usually costs latency, not an outcome. Only a client
// that gave up — retry budget exhausted, or an operation answered
// indeterminate/timed out — is replaced, under a fresh session
// incarnation so the old and new dedupe windows never mix. Returns the
// final incarnation's client, still open, for the per-session order
// check.
func runSessionWorker(cluster *ProcCluster, sc ProcScenario, id int, t *workerTally) *skueue.Client {
	rng := xrand.New(sc.Seed ^ int64(id)<<21).Fork("session-worker")
	incarnation := 0
	var c *skueue.Client
	open := func() bool {
		if c != nil {
			c.Close()
			c = nil
		}
		incarnation++
		sess := fmt.Sprintf("chaos-%d-w%d-i%d", sc.Seed, id, incarnation)
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			addr, ok := cluster.LiveAddr(rng)
			if ok {
				cl, err := skueue.Open(
					skueue.WithRemote(addr),
					skueue.WithSession(sess),
					skueue.WithDialTimeout(2*time.Second),
					skueue.WithReconnect(60, 200*time.Millisecond),
				)
				if err == nil {
					c = cl
					return true
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		return false
	}
	for i := 0; i < sc.OpsPerWorker; i++ {
		if c == nil && !open() {
			return nil // cluster unreachable; accounting will catch real loss
		}
		ctx, cancel := context.WithTimeout(context.Background(), sc.OpTimeout)
		var opErr error
		if rng.Bool(sc.EnqRatio) {
			v, pri := chaosValue(sc, rng, id, i)
			t0 := time.Now()
			var f *skueue.Future
			var err error
			if sc.HeapLevels > 0 {
				f, err = c.EnqueuePriAsync(skueue.AnyProcess, pri, v)
			} else {
				f, err = c.EnqueueAsync(skueue.AnyProcess, v)
			}
			if err == nil {
				_, _, err = f.Result(ctx)
			}
			if err == nil {
				t.confirmed[v] = true
				t.hist.Record(time.Since(t0).Microseconds())
			} else {
				// Retries exhausted, a timeout, or an indeterminate answer:
				// the enqueue may or may not have committed server-side.
				t.maybeEnq[v] = true
			}
			opErr = err
		} else {
			t0 := time.Now()
			var f *skueue.Future
			var err error
			if sc.HeapLevels > 0 {
				f, err = c.DequeueMinAsync(skueue.AnyProcess)
			} else {
				f, err = c.DequeueAsync(skueue.AnyProcess)
			}
			var v any
			var present bool
			if err == nil {
				v, present, err = f.Result(ctx)
			}
			if err == nil {
				if present {
					if s, isStr := v.(string); isStr {
						t.dequeued = append(t.dequeued, s)
					}
				} else {
					t.bottoms++
				}
				t.hist.Record(time.Since(t0).Microseconds())
			} else {
				// The answer is lost; the dequeue may have consumed an
				// element whose identity is unknown.
				t.indetDeq++
			}
			opErr = err
		}
		cancel()
		if opErr != nil {
			// A timed-out operation could still settle on this session, but
			// its tally entry is already conservative (maybe/indeterminate);
			// replacing the incarnation keeps each pending window's
			// accounting unambiguous.
			c.Close()
			c = nil
		}
	}
	return c
}

// drainAndCheck empties the structure after the storm, then fetches the
// merged histories for the Definition 1 check and the final stats.
// dequeued is extended with the drained elements.
func drainAndCheck(cluster *ProcCluster, sc ProcScenario, dequeued map[string]int) (int, skueue.Stats, error) {
	rng := xrand.New(sc.Seed ^ 0x1d7a1).Fork("drain")
	var c *skueue.Client
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	open := func() error {
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			addr, ok := cluster.LiveAddr(rng)
			if ok {
				cl, err := skueue.Open(skueue.WithRemote(addr))
				if err == nil {
					c = cl
					return nil
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		return fmt.Errorf("chaos: no reachable member for drain")
	}
	if err := open(); err != nil {
		return 0, skueue.Stats{}, err
	}
	drained := 0
	bottoms := 0
	deadline := time.Now().Add(5 * time.Minute)
	// Consecutive ⊥ answers prove emptiness only once no enqueue can
	// still be in flight; workers and storm are done, so 25 in a row
	// (spread over transport latency) is far past any journal replay.
	for bottoms < 25 {
		if time.Now().After(deadline) {
			return drained, skueue.Stats{}, fmt.Errorf("chaos: drain did not reach empty in 5m (%d drained)", drained)
		}
		ctx, cancel := context.WithTimeout(context.Background(), sc.OpTimeout)
		var v any
		var ok bool
		var err error
		if sc.HeapLevels > 0 {
			v, ok, err = c.DequeueMin(ctx)
		} else {
			v, ok, err = c.Dequeue(ctx)
		}
		cancel()
		if err != nil {
			c.Close()
			c = nil
			if err := open(); err != nil {
				return drained, skueue.Stats{}, err
			}
			continue
		}
		if ok {
			bottoms = 0
			drained++
			if s, isStr := v.(string); isStr {
				dequeued[s]++
			}
		} else {
			bottoms++
			time.Sleep(20 * time.Millisecond)
		}
	}
	if err := c.Check(); err != nil {
		dumpHistory(cluster, c)
		return drained, skueue.Stats{}, fmt.Errorf("chaos: Definition 1 check failed: %w", err)
	}
	return drained, c.Stats(), nil
}

// dumpHistory writes the merged completion history to the scenario's
// base directory when a consistency check fails, so a violation found by
// a storm can be diagnosed from the artifacts instead of re-run. Best
// effort: fetch or write errors only log.
func dumpHistory(cluster *ProcCluster, c *skueue.Client) {
	h, err := c.History()
	if err != nil {
		cluster.logf("chaos: history dump failed: %v", err)
		return
	}
	ops := append([]seqcheck.Completion(nil), h.Ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].Value < ops[j].Value })
	var b strings.Builder
	b.WriteString("rank\tclient\tseq\tkind\telem\tbottom\treqid\n")
	for _, op := range ops {
		fmt.Fprintf(&b, "%d\tc%d\t%d\t%v\t%v\t%v\t%#x\n",
			op.Value, op.Client, op.LocalSeq, op.Kind, op.Elem, op.Bottom, op.ReqID)
	}
	path := filepath.Join(cluster.BaseDir(), "history.tsv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		cluster.logf("chaos: history dump failed: %v", err)
		return
	}
	cluster.logf("chaos: merged history dumped to %s", path)
}
