package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skueue"
)

type loopKind int

const (
	loopOpen loopKind = iota // the workload: fixed rate, timed from the due time
	loopPipe                 // a traced run's saturated pass: closed, pipeDepth futures in flight per connection, 50/50
)

// netSpec describes a networked workload: the cluster it runs against,
// which member each client connection dials, and the rate of the open
// loop that loads it. Every workload uses two connections, one
// submitting goroutine each: the sandbox has two cores, and pipelining
// futures rather than adding threads is how the load is raised.
type netSpec struct {
	members   int
	durable   bool
	clientsAt []int
	rate      int // operations per second offered in total, on an even schedule
}

const (
	// warmupSeconds is the length of the warm-up every set-up runs with
	// the workload's own mix before the queue is emptied again.
	warmupSeconds = 1.0
	// rateWindow is the width of the windows throughput is the median of.
	rateWindow = 0.5
	// satShare is the length of a traced pass's saturated interval, as a
	// share of the pass.
	satShare = 0.5
	// latWindow is the width of the windows latency percentiles are
	// taken in; the reported percentile is the median over the windows.
	latWindow = 1.0
)

// netEnv is one booted cluster with its client connections and the
// generator's bookkeeping: the element ledger and the failure count.
type netEnv struct {
	spec      netSpec
	seed      uint64
	epoch     time.Time
	cl        *cluster
	stateRoot string
	counts    *connCounts
	conns     []*conn

	inflight    atomic.Int64
	inflightMax atomic.Int64

	// ledger[id] is 0 for an id never enqueued, 1 once enqueued, 2 once
	// dequeued: every value must go 0 → 1 → 2 exactly once.
	ledger     []uint8
	attempted  int64
	failed     int64
	violations []string
}

func (e *netEnv) since() int64 { return int64(time.Since(e.epoch)) }

func (e *netEnv) noteInflight(delta int64) {
	n := e.inflight.Add(delta)
	for {
		m := e.inflightMax.Load()
		if n <= m || e.inflightMax.CompareAndSwap(m, n) {
			return
		}
	}
}

func (e *netEnv) violate(format string, args ...any) {
	if len(e.violations) < 10 {
		e.violations = append(e.violations, fmt.Sprintf(format, args...))
	}
}

// setupNet boots the cluster, dials the clients, runs the warm-up and
// empties the queue. Spans for the three steps hang under parent.
func setupNet(spec netSpec, cfg runConfig, counted bool, tr *tracer, parent uint32) (*netEnv, error) {
	env := &netEnv{spec: spec, seed: cfg.seed, epoch: tr.epoch}
	if counted {
		env.counts = &connCounts{}
	}
	sp := tr.begin("setup.boot", parent)
	if spec.durable {
		dir, err := os.MkdirTemp(cfg.tmpDir, "state-")
		if err != nil {
			return nil, err
		}
		env.stateRoot = dir
	}
	cl, err := bootCluster(spec.members, env.stateRoot, env.counts)
	tr.end(sp)
	if err != nil {
		env.close()
		return nil, err
	}
	env.cl = cl

	sp = tr.begin("setup.dial", parent)
	for i, at := range spec.clientsAt {
		c, err := skueue.Open(skueue.WithRemote(cl.addrs[at]))
		if err != nil {
			tr.end(sp)
			env.close()
			return nil, fmt.Errorf("dialing member %d: %w", at, err)
		}
		rng := cfg.seed*0x9e3779b97f4a7c15 + uint64(i) + 1
		env.conns = append(env.conns, &conn{env: env, idx: i, c: c, rng: rng, log: &opLog{}})
	}
	tr.end(sp)

	sp = tr.begin("warmup", parent)
	env.load(loopOpen, warmupSeconds, false)
	env.drain()
	tr.end(sp)
	return env, nil
}

func (e *netEnv) close() {
	for _, cn := range e.conns {
		cn.c.Close()
	}
	if e.cl != nil {
		e.cl.close()
	}
	if e.stateRoot != "" {
		os.RemoveAll(e.stateRoot)
	}
}

// phaseLog is what one loaded interval left behind: the generator's
// records and the process counters at both ends.
type phaseLog struct {
	logs       []*opLog
	from, to   int64 // ns since epoch; rates are taken over [from, to)
	proc0      procSample
	proc1      procSample
	tcp0, tcp1 [3]int64 // reads, writes, bytes of the counting listener
}

func (e *netEnv) tcpCounts() [3]int64 {
	if e.counts == nil {
		return [3]int64{}
	}
	return [3]int64{e.counts.reads.Load(), e.counts.writes.Load(), e.counts.bytes.Load()}
}

// eachConn runs fn once per connection, each on its own goroutine — the
// connection's one submitter — and waits for all of them.
func (e *netEnv) eachConn(fn func(cn *conn)) {
	var wg sync.WaitGroup
	for _, cn := range e.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(cn)
		}()
	}
	wg.Wait()
}

// load runs a loop of the given kind for the given length, books the
// outcomes into the ledger and returns the records.
func (e *netEnv) load(loop loopKind, seconds float64, withRuntime bool) *phaseLog {
	ph := &phaseLog{}
	for _, cn := range e.conns {
		cn.log = &opLog{}
		ph.logs = append(ph.logs, cn.log)
	}
	length := time.Duration(seconds * float64(time.Second))
	ph.proc0, ph.tcp0 = sampleProc(withRuntime), e.tcpCounts()
	start := time.Now()
	ph.from = e.since()
	switch loop {
	case loopOpen:
		interval := time.Second / time.Duration(e.spec.rate)
		stride := len(e.conns)
		e.eachConn(func(cn *conn) {
			// Each connection alternates, and the connections are out of
			// step, so every slot of the schedule pairs one enqueue with
			// one dequeue: the even load the latency figures rest on.
			openLoop(start, interval, length, cn.idx, stride, func(i int, due time.Duration) {
				cn.submit((i/stride+cn.idx)%2 == 0, ph.from+int64(due), nil)
			})
			cn.wg.Wait()
		})
	case loopPipe:
		deadline := start.Add(length)
		e.eachConn(func(cn *conn) {
			cn.closedLoop(func() bool { return time.Now().Before(deadline) }, cn.coin)
		})
	}
	ph.to = ph.from + int64(length)
	ph.proc1, ph.tcp1 = sampleProc(withRuntime), e.tcpCounts()
	e.book(ph.logs)
	return ph
}

// drain empties the queue through the first connection and books what
// came out.
func (e *netEnv) drain() {
	cn := e.conns[0]
	cn.log = &opLog{}
	cn.dequeueUntilEmpty()
	e.book([]*opLog{cn.log})
}

// book enters a phase's outcomes into the element ledger: enqueues
// first, because a value may be dequeued in the phase that enqueued it.
func (e *netEnv) book(logs []*opLog) {
	for _, enqPass := range []bool{true, false} {
		for _, l := range logs {
			l.each(func(r *opRec) {
				if r.enq != enqPass {
					return
				}
				e.attempted++
				switch {
				case r.fail != "":
					e.failed++
					e.violate("%s failed: %s", opName(r), r.fail)
				case r.enq:
					for uint64(len(e.ledger)) <= r.id {
						e.ledger = append(e.ledger, make([]uint8, 1<<16)...)
					}
					e.ledger[r.id] = 1
				case r.bottom:
				case r.valID >= uint64(len(e.ledger)) || e.ledger[r.valID] == 0:
					e.violate("value %d was dequeued but never enqueued", r.valID)
				case e.ledger[r.valID] == 2:
					e.violate("value %d was dequeued twice", r.valID)
				default:
					e.ledger[r.valID] = 2
				}
			})
		}
	}
}

// lostValues lists the values enqueued and not yet dequeued. Once the
// queue has drained to ⊥ there must be none.
func (e *netEnv) lostValues() []uint64 {
	var lost []uint64
	for id, st := range e.ledger {
		if st == 1 {
			lost = append(lost, uint64(id))
		}
	}
	return lost
}

func opName(r *opRec) string {
	if r.enq {
		return fmt.Sprintf("enqueue of value %d", r.id)
	}
	return "dequeue"
}

// verify is the correctness gate of a pass: Definition 1 over the merged
// member histories (Client.Check), and, the queue having been drained to
// ⊥, every enqueued value dequeued exactly once. It returns how long the
// Definition 1 check took.
func (e *netEnv) verify() (time.Duration, error) {
	start := time.Now()
	err := e.conns[0].c.Check()
	took := time.Since(start)
	if err != nil {
		return took, fmt.Errorf("Definition 1 check: %w", err)
	}
	for _, id := range e.lostValues() {
		e.violate("value %d was enqueued and never came out although the queue drained to ⊥", id)
	}
	if len(e.violations) > 0 {
		return took, fmt.Errorf("element accounting (%d of %d operations failed): %v", e.failed, e.attempted, e.violations)
	}
	return took, nil
}

// loadStats are the numbers drawn from one measured interval.
type loadStats struct {
	ops                  int
	opsPerS              float64
	latP50, latP99       float64 // ms, due → done
	ticksPerOp           float64 // member ticks of a dequeue: mean per window
	submitP50, submitP99 float64 // µs inside EnqueueAsync/DequeueAsync
	waitP50              float64 // µs from submit return to Done
	lateP99, lateMax     float64 // ms the generator sent after the due time
}

// stats of a single loaded interval.
func (ph *phaseLog) stats() (loadStats, error) { return statsOf([]*phaseLog{ph}) }

// statsOf draws the numbers from the intervals of one pass, which ran
// one after the other on clusters of their own. Rates and latency
// percentiles are taken per window within each interval and then
// summarised over all the windows of the pass.
func statsOf(phases []*phaseLog) (loadStats, error) {
	var st loadStats
	var rates, p50s, p99s, ticks, submit, wait, late []float64
	var length float64
	for _, ph := range phases {
		var done []float64
		lat := make([][]float64, int(float64(ph.to-ph.from)/1e9/latWindow)+1)
		tickSum, nDeq := make([]float64, len(lat)), make([]float64, len(lat))
		for _, l := range ph.logs {
			l.each(func(r *opRec) {
				done = append(done, float64(r.done)/1e9)
				// An operation belongs to the window it was due in.
				w := min(max(int(float64(r.due-ph.from)/1e9/latWindow), 0), len(lat)-1)
				lat[w] = append(lat[w], float64(r.done-r.due)/1e6)
				if !r.enq {
					tickSum[w] += float64(r.ticks)
					nDeq[w]++
				}
				submit = append(submit, float64(r.sub1-r.sub0)/1e3)
				wait = append(wait, float64(r.done-r.sub1)/1e3)
				late = append(late, float64(r.sub0-r.due)/1e6)
			})
		}
		st.ops += len(done)
		from, to := float64(ph.from)/1e9, float64(ph.to)/1e9
		length += to - from
		rates = append(rates, windowRates(done, from, to, rateWindow)...)
		// Only a window that can carry a 99th percentile gives figures.
		for i, w := range lat {
			sort.Float64s(w)
			if supportedPercentile(len(w)) >= 99 {
				p50s, p99s = append(p50s, percentile(w, 50)), append(p99s, percentile(w, 99))
				if nDeq[i] > 0 {
					ticks = append(ticks, tickSum[i]/nDeq[i])
				}
			}
		}
	}
	if len(p50s) == 0 {
		return st, fmt.Errorf("%d operations completed and no window holds enough of them to carry a 99th percentile", st.ops)
	}
	// The report is the median over the windows of the pass: a slow
	// second on a shared machine moves one window and not the tail of the
	// whole run. A pass shorter than a rate window reports work over time.
	if len(rates) == 0 {
		rates = []float64{float64(st.ops) / length}
	}
	st.opsPerS, st.latP50, st.latP99, st.ticksPerOp = median(rates), median(p50s), median(p99s), median(ticks)
	for _, v := range [][]float64{submit, wait, late} {
		sort.Float64s(v)
	}
	st.submitP50, st.submitP99 = percentile(submit, 50), percentile(submit, 99)
	st.waitP50 = percentile(wait, 50)
	st.lateP99, st.lateMax = percentile(late, 99), late[len(late)-1]
	return st, nil
}

// netPass is one complete pass over a networked workload, made of one
// or more segments: each sets up a cluster of its own, measures its
// share of the pass on it, drains and verifies. Timer phases between the
// members and against the schedule are fixed when a cluster boots and
// move its latencies by a few per cent, so a run that has to repeat
// measures several clusters instead of one.
type netPass struct {
	setups      []float64 // seconds per set-up
	stats       loadStats
	attempted   int64
	inflightMax int64
	checkMS     float64
	rssMB       float64

	// A traced pass is one segment; it keeps its interval for the
	// counters at both ends, and ends with a saturated interval on the
	// same cluster.
	ph                        *phaseLog
	satOpsPerS, satCPUPerOpUS float64
}

func runNetPass(spec netSpec, cfg runConfig, seconds float64, segments int, traced bool, tr *tracer, parent uint32) (*netPass, error) {
	p := &netPass{}
	var phases []*phaseLog
	for i := 0; i < segments; i++ {
		ph, err := p.segment(spec, cfg, seconds/float64(segments), traced, tr, parent)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
	}
	p.ph = phases[len(phases)-1]
	var err error
	p.stats, err = statsOf(phases)
	return p, err
}

func (p *netPass) segment(spec netSpec, cfg runConfig, seconds float64, traced bool, tr *tracer, parent uint32) (*phaseLog, error) {
	start := time.Now()
	env, err := setupNet(spec, cfg, traced, tr, parent)
	if err != nil {
		return nil, err
	}
	defer env.close()
	p.setups = append(p.setups, time.Since(start).Seconds())

	sp := tr.begin("measure", parent)
	stopProfiles := func() error { return nil }
	if traced {
		if stopProfiles, err = startProfiles(cfg); err != nil {
			return nil, err
		}
	}
	ph := env.load(loopOpen, seconds, traced)
	if err := stopProfiles(); err != nil {
		return nil, err
	}
	tr.end(sp)
	p.inflightMax = max(p.inflightMax, env.inflightMax.Load())
	if traced {
		ph.addSpans(tr, sp)
		// Capacity: the same cluster under a closed loop that keeps it
		// busy. It is a per-layer figure and never an end-to-end one,
		// because on a shared machine it follows the neighbours' load.
		sp = tr.begin("saturate", parent)
		sat := env.load(loopPipe, seconds*satShare, false)
		tr.end(sp)
		st, err := sat.stats()
		if err != nil {
			return nil, fmt.Errorf("saturated interval: %w", err)
		}
		p.satOpsPerS = st.opsPerS
		p.satCPUPerOpUS = float64(sat.proc1.cpu()-sat.proc0.cpu()) / 1e3 / float64(st.ops)
	}

	dr := tr.begin("drain", parent)
	env.drain()
	tr.end(dr)
	p.rssMB = peakRSSMB()

	ck := tr.begin("check", parent)
	took, err := env.verify()
	tr.end(ck)
	if err != nil {
		return nil, err
	}
	p.checkMS += float64(took) / 1e6
	p.attempted += env.attempted
	return ph, nil
}

// addSpans turns the generator's records into per-operation spans: op
// (due → done) with client.submit and client.wait inside it, all three
// carrying the operation's identifier.
func (ph *phaseLog) addSpans(tr *tracer, parent uint32) {
	var op uint64
	for _, l := range ph.logs {
		l.each(func(r *opRec) {
			op++
			id := tr.add("op", parent, op, r.due, r.done)
			tr.add("client.submit", id, op, r.sub0, r.sub1)
			tr.add("client.wait", id, op, r.sub1, r.done)
		})
	}
}

// startProfiles begins the CPU and mutex profiles of a traced interval;
// the returned function ends them and writes them, with the heap
// profile, beside the trace file.
func startProfiles(cfg runConfig) (func() error, error) {
	path := func(kind string) string {
		return filepath.Join(cfg.outDir, cfg.workload+"."+kind+".pprof")
	}
	cpu, err := os.Create(path("cpu"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	prev := runtime.SetMutexProfileFraction(10)
	return func() error {
		pprof.StopCPUProfile()
		runtime.SetMutexProfileFraction(prev)
		if err := cpu.Close(); err != nil {
			return err
		}
		for _, kind := range []string{"mutex", "allocs"} {
			name := kind
			if kind == "allocs" {
				name = "mem"
			}
			f, err := os.Create(path(name))
			if err != nil {
				return err
			}
			if err := pprof.Lookup(kind).WriteTo(f, 0); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		return nil
	}, nil
}
