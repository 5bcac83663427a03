package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skueue"
	"skueue/internal/batch"
	"skueue/internal/core"
	"skueue/internal/dht"
	"skueue/internal/transport"
	"skueue/internal/transport/tcp"
	"skueue/internal/wire"
)

// The layer probes drive one module each through its public functions
// and time the calls from outside. Every traced run makes all of them,
// whatever its workload, so they are sized to take a few seconds
// together; the sizes are constants because a probe's number is only
// comparable to the same probe's number.
const (
	probeFrames    = 20000 // frames per wire stream
	probeValues    = 20000 // value codec round trips
	probePings     = 1000  // sequential peer round trips
	probeBlast     = 20000 // pipelined peer round trips
	probeRawOps    = 200   // depth-1 operations against one member
	probeBacklog   = 20000 // queue length when the snapshot is timed
	probeIdle      = time.Second
	probeDurRate   = 1000 // offered to the three durable members, operations per second
	probeDurOpen   = 4.0  // seconds of that open loop
	probeDurSat    = 3.0  // seconds of the closed loop that follows
	probeSimRounds = 2000
	probeSimRep    = 1 << 20 // generator stream no workload repetition uses
	probeStore     = 100000
	probeBatchRuns = 8
	probeBatchIter = 20000
)

// runProbes fills in every per-layer metric that does not come from the
// workload's own traced pass.
func runProbes(cfg runConfig, tr *tracer, parent uint32, layer map[string]float64) error {
	probes := []struct {
		name string
		fn   func(runConfig, map[string]float64) error
	}{
		{"probe.wire", probeWire},
		{"probe.tcp", probeTCP},
		{"probe.server", probeServer},
		{"probe.durable", probeDurable},
		{"probe.core", probeCore},
		{"probe.dht-batch", probeDHTBatch},
	}
	for _, p := range probes {
		sp := tr.begin(p.name, parent)
		err := p.fn(cfg, layer)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

// loopbackPair returns the two ends of one loopback TCP connection.
func loopbackPair() (dialed, accepted net.Conn, err error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer lis.Close()
	dialed, err = net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	accepted, err = lis.Accept()
	if err != nil {
		dialed.Close()
		return nil, nil, err
	}
	return dialed, accepted, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// streamFrames times Conn.Write and Conn.Read separately over a loopback
// socket: first n frames are written while the far end only collects the
// bytes, then those bytes are replayed into a socket while a Conn decodes
// them. It returns the mean size of a frame and the two durations. The
// first frame is left out of the size: it carries gob's type
// descriptors, whose length depends on what the process encoded before.
func streamFrames(n int, frame func(i int) any) (size float64, write, read time.Duration, allocs uint64, err error) {
	a, b, err := loopbackPair()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var raw bytes.Buffer
	copied := make(chan error, 1)
	go func() {
		_, err := io.Copy(&raw, b)
		copied <- err
	}()
	var sent connCounts
	w := wire.NewConn(countingConn{Conn: a, counts: &sent})
	var firstFrame int64
	m0 := mallocs()
	start := time.Now()
	for i := 0; i < n && err == nil; i++ {
		err = w.Write(frame(i))
		if i == 0 {
			firstFrame = sent.bytes.Load()
		}
	}
	write = time.Since(start)
	allocs = mallocs() - m0
	w.Close()
	if cerr := <-copied; err == nil {
		err = cerr
	}
	b.Close()
	if err != nil {
		return 0, 0, 0, 0, err
	}

	a, b, err = loopbackPair()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer b.Close()
	go func() {
		a.Write(raw.Bytes()) // an error here surfaces as a failed Read below
		a.Close()
	}()
	r := wire.NewConn(b)
	m0 = mallocs()
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := r.Read(); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("reading frame %d back: %w", i, err)
		}
	}
	read = time.Since(start)
	allocs += mallocs() - m0
	return float64(sent.bytes.Load()-firstFrame) / float64(n-1), write, read, allocs, nil
}

func probeWire(cfg runConfig, layer map[string]float64) error {
	blob, err := wire.EncodeValue(jobValue(cfg.seed, 1))
	if err != nil {
		return err
	}
	enqSize, w1, r1, a1, err := streamFrames(probeFrames, func(i int) any {
		return wire.CliEnqueue{Seq: uint64(i + 1), Value: blob}
	})
	if err != nil {
		return err
	}
	doneSize, w2, r2, a2, err := streamFrames(probeFrames, func(i int) any {
		return wire.CliDone{Seq: uint64(i + 1), ReqID: 1<<48 | uint64(i+1), Value: blob, Rounds: 9, Rank: int64(i + 1)}
	})
	if err != nil {
		return err
	}
	frames := float64(2 * probeFrames)
	layer["wire.cli_enqueue_bytes"] = enqSize
	layer["wire.cli_done_bytes"] = doneSize
	layer["wire.write_us"] = float64(w1+w2) / 1e3 / frames
	layer["wire.read_us"] = float64(r1+r2) / 1e3 / frames
	layer["wire.allocs_per_frame"] = float64(a1+a2) / frames

	value := jobValue(cfg.seed, 2)
	start := time.Now()
	for i := 0; i < probeValues; i++ {
		if blob, err = wire.EncodeValue(value); err != nil {
			return err
		}
	}
	layer["wire.value_encode_ns"] = float64(time.Since(start)) / probeValues
	start = time.Now()
	for i := 0; i < probeValues; i++ {
		if _, err := wire.DecodeValue(blob); err != nil {
			return err
		}
	}
	layer["wire.value_decode_ns"] = float64(time.Since(start)) / probeValues
	return nil
}

// echoNode answers every "ping" with a "pong" and reports each pong it
// receives.
type echoNode struct{ pongs chan struct{} }

func (e *echoNode) OnInit(*transport.Context)    {}
func (e *echoNode) OnTimeout(*transport.Context) {}
func (e *echoNode) OnMessage(ctx *transport.Context, from transport.NodeID, payload any) {
	switch payload {
	case "ping":
		ctx.Send(from, "pong")
	case "pong":
		e.pongs <- struct{}{}
	}
}

// servePeer is the accept loop the server package runs for a member,
// reduced to what two bare peers need.
func servePeer(lis net.Listener, p *tcp.Peer) {
	for {
		nc, err := lis.Accept()
		if err != nil {
			return
		}
		go func() {
			conn := wire.NewConn(nc)
			v, _ := conn.Read() // a failed read leaves v nil, which is no Hello
			if hello, ok := v.(wire.Hello); ok && hello.Kind == "peer" {
				p.AcceptPeer(conn, hello)
				return
			}
			conn.Close()
		}()
	}
}

func probeTCP(cfg runConfig, layer map[string]float64) error {
	var lis [2]net.Listener
	var peers [2]*tcp.Peer
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer l.Close()
		lis[i] = l
		peers[i] = tcp.New(tcp.Options{Index: int32(i), Addr: l.Addr().String(), Pids: []int32{int32(i)}, Seed: 1})
		defer peers[i].Close()
	}
	peers[0].SetBook([]wire.MemberInfo{peers[1].Me()})
	peers[1].SetBook([]wire.MemberInfo{peers[0].Me()})
	// Node ids are pid*3 + kind: node 0 lives on member 0, node 3 on member 1.
	// The channel holds a whole blast so the runner never blocks on it.
	near := &echoNode{pongs: make(chan struct{}, probeBlast)}
	peers[0].Register(0, near)
	peers[1].Register(3, &echoNode{})
	for i := range peers {
		go servePeer(lis[i], peers[i])
		peers[i].Start()
	}
	ping := func() { peers[0].Do(func() { peers[0].Send(0, 3, "ping") }) }
	pong := func() error {
		select {
		case <-near.pongs:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("no pong within 10s")
		}
	}
	rtts := make([]float64, 0, probePings)
	for i := 0; i < probePings+20; i++ {
		start := time.Now()
		ping()
		if err := pong(); err != nil {
			return err
		}
		if i >= 20 { // the first few pay for the dial
			rtts = append(rtts, float64(time.Since(start))/1e3)
		}
	}
	sort.Float64s(rtts)
	layer["tcp.peer_rtt_us_p50"] = percentile(rtts, 50)

	start := time.Now()
	for i := 0; i < probeBlast; i++ {
		ping()
	}
	for i := 0; i < probeBlast; i++ {
		if err := pong(); err != nil {
			return err
		}
	}
	// Each round trip is two frames on the wire.
	layer["tcp.peer_frames_per_s"] = 2 * probeBlast / time.Since(start).Seconds()
	return nil
}

// rawSession is a client session spoken directly over a wire.Conn, one
// operation at a time: the server's cost without the client package.
func rawSession(addr string, ops int, between func(i int)) ([]float64, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	conn := wire.NewConn(nc)
	defer conn.Close()
	if err := conn.Write(wire.Hello{Kind: "client"}); err != nil {
		return nil, err
	}
	if _, err := conn.Read(); err != nil {
		return nil, err
	}
	blob, err := wire.EncodeValue(jobValue(0, 0))
	if err != nil {
		return nil, err
	}
	us := make([]float64, 0, ops)
	for i := 0; i < ops; i++ {
		start := time.Now()
		if err := conn.Write(wire.CliEnqueue{Seq: uint64(i + 1), Value: blob}); err != nil {
			return nil, err
		}
		v, err := conn.Read()
		if err != nil {
			return nil, err
		}
		if done, ok := v.(wire.CliDone); !ok || done.Err != "" {
			return nil, fmt.Errorf("enqueue %d answered %+v", i, v)
		}
		us = append(us, float64(time.Since(start))/1e3)
		if between != nil {
			between(i)
		}
	}
	sort.Float64s(us)
	return us, nil
}

func probeServer(cfg runConfig, layer map[string]float64) error {
	// Boot: three ephemeral members, the median of three boots. The last
	// cluster then sits idle for the idle-CPU reading.
	var boots []float64
	var idle *cluster
	for i := 0; i < 3; i++ {
		if idle != nil {
			idle.close()
		}
		start := time.Now()
		cl, err := bootCluster(3, "", nil)
		if err != nil {
			return err
		}
		boots = append(boots, float64(time.Since(start))/1e6)
		idle = cl
	}
	layer["server.boot_ms"] = median(boots)
	p0 := sampleProc(false)
	time.Sleep(probeIdle)
	p1 := sampleProc(false)
	idle.close()
	layer["server.idle_cpu_ms_per_s"] = float64(p1.cpu()-p0.cpu()) / 1e6 / p1.at.Sub(p0.at).Seconds()

	// Raw depth-1 operation, journal off.
	eph, err := bootCluster(1, "", nil)
	if err != nil {
		return err
	}
	us, err := rawSession(eph.addrs[0], probeRawOps, nil)
	eph.close()
	if err != nil {
		return err
	}
	layer["server.raw_op_us_p50"] = percentile(us, 50)

	// The same with the journal on; the difference is the journal wait.
	// The journal file is looked at between operations: an enqueue's op
	// and outcome records are both on disk before its CliDone is
	// released, so the growth across one operation is what it journaled
	// (a compaction in between shows as shrinkage and is skipped).
	root, err := os.MkdirTemp(cfg.tmpDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	dur, err := bootCluster(1, root, nil)
	if err != nil {
		return err
	}
	defer func() { dur.close() }()
	journal := filepath.Join(root, "m0", "ops.journal")
	size := func() int64 {
		info, err := os.Stat(journal)
		if err != nil {
			return 0
		}
		return info.Size()
	}
	var growth []float64
	last := size()
	us, err = rawSession(dur.addrs[0], probeRawOps, func(int) {
		now := size()
		if now > last {
			growth = append(growth, float64(now-last))
		}
		last = now
	})
	if err != nil {
		return err
	}
	layer["server.raw_op_durable_us_p50"] = percentile(us, 50)
	layer["server.journal_bytes_per_op"] = median(growth)

	// Snapshot of a backlog, then restart from it.
	c, err := skueue.Open(skueue.WithRemote(dur.addrs[0]))
	if err != nil {
		return err
	}
	// Filling it is the journal written flat out by one client: every
	// enqueue journals its op and its put-ack.
	fill := probeBacklog - probeRawOps
	start := time.Now()
	err = pipelined(fill, func(i int) (*skueue.Future, error) {
		return c.EnqueueAsync(skueue.AnyProcess, jobValue(cfg.seed, uint64(i)))
	}, nil)
	layer["server.fill_ops_per_s"] = float64(fill) / time.Since(start).Seconds()
	c.Close()
	if err != nil {
		return fmt.Errorf("filling the backlog: %w", err)
	}
	var snaps []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		for {
			err := dur.srvs[0].SnapshotNow()
			if err == nil {
				break
			}
			if !errors.Is(err, core.ErrNotQuiescent) || time.Since(start) > 5*time.Second {
				return err
			}
			start = time.Now() // a capture refused mid-flight is not a snapshot; time the next try
		}
		snaps = append(snaps, float64(time.Since(start))/1e6)
	}
	layer["server.snapshot_ms"] = median(snaps)
	info, err := os.Stat(filepath.Join(root, "m0", "snapshot.gob"))
	if err != nil {
		return err
	}
	layer["server.snapshot_bytes"] = float64(info.Size())

	start = time.Now()
	dur.close()
	dur, err = bootCluster(1, root, nil)
	if err != nil {
		return fmt.Errorf("restarting from the state directory: %w", err)
	}
	c, err = skueue.Open(skueue.WithRemote(dur.addrs[0]))
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, ok, err := c.Dequeue(ctx); err != nil || !ok {
		return fmt.Errorf("first dequeue after the restart: ok=%v err=%v", ok, err)
	}
	layer["server.restart_ms"] = float64(time.Since(start)) / 1e6

	// Draining the rest is the journal read beside being written: every
	// dequeue journals its op and the value it was served, and each
	// 250 ms snapshot images what is left of the backlog.
	drain := probeBacklog - 1
	var bottoms atomic.Int64
	start = time.Now()
	err = pipelined(drain, func(int) (*skueue.Future, error) {
		return c.DequeueAsync(skueue.AnyProcess)
	}, func(f *skueue.Future) {
		if f.Empty() {
			bottoms.Add(1)
		}
	})
	layer["server.drain_ops_per_s"] = float64(drain) / time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("draining the backlog: %w", err)
	}
	if n := bottoms.Load(); n > 0 {
		return fmt.Errorf("%d dequeues answered ⊥ before the backlog of %d was out", n, probeBacklog)
	}
	return nil
}

// pipelined submits n operations, keeping up to pipeDepth futures in
// flight, and waits for all of them. each, when non-nil, sees every
// future that completed without error; any that failed fail the call.
func pipelined(n int, submit func(i int) (*skueue.Future, error), each func(*skueue.Future)) error {
	slots := make(chan struct{}, pipeDepth)
	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < n; i++ {
		slots <- struct{}{}
		f, err := submit(i)
		if err != nil {
			wg.Wait()
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-f.Done()
			if f.Err() != nil {
				failed.Add(1)
			} else if each != nil {
				each(f)
			}
			<-slots
		}()
	}
	wg.Wait()
	if bad := failed.Load(); bad > 0 {
		return fmt.Errorf("%d of %d operations failed", bad, n)
	}
	return nil
}

// probeDurable puts three durable members under the networked
// workloads' own loops: first the open loop, whose latency then holds
// the journal waits, WAL-before-send and write-ahead ack release that
// sit between members, then the closed loop that saturates them. The
// figures follow the shared disk's fsync time from minute to minute,
// which is why they are a probe's and not a workload's.
func probeDurable(cfg runConfig, layer map[string]float64) error {
	quiet := newTracer() // the probe's spans are not the run's
	spec := netSpec{members: 3, durable: true, clientsAt: []int{0, 1}, rate: probeDurRate}
	env, err := setupNet(spec, cfg, false, quiet, 0)
	if err != nil {
		return err
	}
	defer env.close()
	open, err := env.load(loopOpen, probeDurOpen, false).stats()
	if err != nil {
		return err
	}
	sat, err := env.load(loopPipe, probeDurSat, false).stats()
	if err != nil {
		return err
	}
	env.drain()
	if _, err := env.verify(); err != nil {
		return err
	}
	layer["server.dur3_latency_p50_ms"], layer["server.dur3_latency_p99_ms"] = open.latP50, open.latP99
	layer["server.dur3_sat_ops_per_s"] = sat.opsPerS
	return nil
}

func probeCore(cfg runConfig, layer map[string]float64) error {
	quiet := newTracer() // the probe's spans are not the run's
	r, err := runSimRep(cfg.seed, probeSimRep, probeSimRounds, false, quiet, quiet.begin("probe", 0))
	if err != nil {
		return err
	}
	ops := float64(r.ops)
	layer["core.msgs_per_op"] = float64(r.msgs) / ops
	layer["core.timeouts_per_op"] = float64(r.timeouts) / ops
	layer["core.step_us"] = percentile(r.stepUS, 50)
	layer["core.allocs_per_round"] = float64(r.allocs) / probeSimRounds
	layer["core.alloc_bytes_per_round"] = float64(r.allocB) / probeSimRounds
	layer["core.tree_height"] = float64(r.treeHeight)
	layer["core.max_batch_runs"] = float64(r.maxBatchRuns)
	layer["core.waves_assigned"] = float64(r.wavesAssigned)
	layer["core.parked_gets"] = float64(r.parkedGets)
	layer["ldb.route_hops_mean"] = r.routeHopsMean

	cl, err := core.New(core.Config{Processes: simProcs, Seed: simClusterSeed})
	if err != nil {
		return err
	}
	cl.Run(200)
	steps := make([]float64, 0, 1000)
	for i := 0; i < cap(steps); i++ {
		start := time.Now()
		cl.Step()
		steps = append(steps, float64(time.Since(start))/1e3)
	}
	sort.Float64s(steps)
	layer["core.idle_step_us"] = percentile(steps, 50)
	return nil
}

// sink keeps the batch probe's results alive so the calls are not
// optimised away.
var sink int

func probeDHTBatch(cfg runConfig, layer map[string]float64) error {
	store := dht.NewStore()
	start := time.Now()
	for i := int64(0); i < probeStore; i++ {
		store.Put(i, i, dht.Element{Origin: 1, Seq: i})
	}
	layer["dht.put_ns"] = float64(time.Since(start)) / probeStore
	start = time.Now()
	for i := int64(0); i < probeStore; i++ {
		if _, ok := store.Get(i, i); !ok {
			return fmt.Errorf("dht: entry %d missing", i)
		}
	}
	layer["dht.get_ns"] = float64(time.Since(start)) / probeStore

	var a, b batch.Batch
	for run := 0; run < probeBatchRuns; run++ {
		for k := 0; k <= run; k++ {
			if run%2 == 0 {
				a.AppendEnqueue()
				b.AppendEnqueue()
				b.AppendEnqueue()
			} else {
				a.AppendDequeue()
				b.AppendDequeue()
			}
		}
	}
	start = time.Now()
	var combined batch.Batch
	for i := 0; i < probeBatchIter; i++ {
		combined = batch.Combine(a, b)
	}
	layer["batch.combine_ns"] = float64(time.Since(start)) / probeBatchIter
	st := batch.NewAnchorState()
	assigned := make([][]batch.RunAssign, probeBatchIter)
	start = time.Now()
	for i := range assigned {
		assigned[i] = st.Assign(batch.Queue, combined)
	}
	layer["batch.assign_ns"] = float64(time.Since(start)) / probeBatchIter
	start = time.Now()
	for _, as := range assigned {
		sink += len(batch.Decompose(batch.Queue, as, a)) + len(batch.Decompose(batch.Queue, as, b))
	}
	layer["batch.decompose_ns"] = float64(time.Since(start)) / (2 * probeBatchIter)
	return nil
}
