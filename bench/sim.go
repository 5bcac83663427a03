package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"skueue/internal/core"
	"skueue/internal/dht"
	"skueue/internal/seqcheck"
	"skueue/internal/workload"
)

const (
	simProcs         = 256
	simReqPerRound   = 10
	simWarmRounds    = 1000
	simReps          = 5   // fresh repetitions of an untraced run
	simTracedReps    = 3   // repetitions of each half of a traced run
	simRoundsPerSec  = 700 // measured rounds per repetition per second of run length
	simClusterSeed   = 1   // the cluster's own seed never varies
	simMaxDrainSteps = 100000
	// simTickMS is the length of one simulated round in the workload's
	// end-to-end metrics: a round is one TIMEOUT interval, and
	// skueue-server's default tick is 1 ms.
	simTickMS = 1.0
)

// simRep is what one repetition of sim-256 measured. Counts repeat
// exactly for a seed; times do not.
type simRep struct {
	setupS      float64
	ops         int // operations issued in the measured rounds
	issuedTotal int64
	rounds      int       // measured rounds
	doneInside  int       // operations that completed during the measured rounds
	wallS       float64   // wall time of the measured rounds
	roundsSum   int64     // Σ Done−Born of the measured operations
	latRounds   []int64   // latRounds[k]: measured operations with Done−Born = k
	stepUS      []float64 // sorted wall time of each measured round

	msgs, timeouts int64 // engine totals over the measured rounds
	allocs, allocB uint64
	treeHeight     int
	maxBatchRuns   int
	wavesAssigned  int64
	parkedGets     int64
	routeHopsMean  float64
	inflightMax    int64
	checkMS        float64
	historyOps     int
	proc0, proc1   procSample
}

// runSimRep builds a fresh 256-process cluster, warms it up, runs the
// measured rounds, drains, and verifies the history against Definition 1
// and the element ledger. When traced it records one span per round and
// per operation under parent.
func runSimRep(seed uint64, rep, rounds int, traced bool, tr *tracer, parent uint32) (simRep, error) {
	var r simRep
	sp := tr.begin("setup.boot", parent)
	start := time.Now()
	cl, err := core.New(core.Config{Processes: simProcs, Seed: simClusterSeed})
	if err != nil {
		return r, err
	}
	gen, err := workload.New(cl, workload.Spec{
		Rounds: simWarmRounds + rounds, RequestsPerRound: simReqPerRound, EnqRatio: 0.5,
	}, int64(seed)*1000+int64(rep))
	if err != nil {
		return r, err
	}
	gen.SetObserver(func(op workload.Op) {
		if op.Round >= simWarmRounds {
			r.ops++
		}
	})
	tr.end(sp)
	// The warm-up runs in real time, a round every simTickMS, as the
	// networked workloads' second of warm-up does: set-up time is then
	// construction plus that second on every workload, and does not
	// follow the neighbours' load the way a thousand rounds flat out do.
	// Nothing can hide in this workload's set-up anyway: its other
	// end-to-end figures are in simulated time.
	sp = tr.begin("warmup", parent)
	warmStart := time.Now()
	for i := 0; i < simWarmRounds; i++ {
		gen.Step()
		time.Sleep(time.Until(warmStart.Add(time.Duration(float64(i+1) * simTickMS * float64(time.Millisecond)))))
	}
	tr.end(sp)
	r.setupS = time.Since(start).Seconds()

	eng := cl.Engine()
	base := eng.Now()
	// wall[t] is the tracer time at the end of the step that made the
	// engine's clock base+t: an operation born at b and done at d spent
	// wall[d]-wall[b] of real time in the simulated system.
	wall := make([]int64, 1, rounds+64)
	var ms0, ms1 runtime.MemStats
	sp = tr.begin("measure", parent)
	runtime.ReadMemStats(&ms0)
	r.proc0 = sampleProc(traced)
	eng0 := eng.Stats()
	wall[0] = tr.now()
	for i := 0; i < rounds; i++ {
		gen.Step()
		wall = append(wall, tr.now())
		if n := cl.Issued() - cl.Finished(); n > r.inflightMax {
			r.inflightMax = n
		}
	}
	eng1 := eng.Stats()
	r.proc1 = sampleProc(traced)
	runtime.ReadMemStats(&ms1)
	tr.end(sp)
	measureSpan := sp
	r.rounds = rounds
	r.wallS = float64(wall[rounds]-wall[0]) / 1e9
	r.msgs = eng1.MessagesSent - eng0.MessagesSent
	r.timeouts = eng1.TimeoutsRun - eng0.TimeoutsRun
	r.allocs, r.allocB = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc

	sp = tr.begin("drain", parent)
	for steps := 0; cl.Finished() < cl.Issued(); steps++ {
		if steps == simMaxDrainSteps {
			return r, fmt.Errorf("sim: %d operations still pending after %d drain rounds", cl.Issued()-cl.Finished(), steps)
		}
		cl.Step()
		wall = append(wall, tr.now())
	}
	tr.end(sp)
	r.issuedTotal = cl.Issued()

	sp = tr.begin("check", parent)
	checkStart := time.Now()
	err = cl.CheckConsistency()
	r.checkMS = float64(time.Since(checkStart)) / 1e6
	hist := cl.History()
	r.historyOps = hist.Len()
	if err == nil {
		err = simLedger(hist, cl.Issued())
	}
	tr.end(sp)
	if err != nil {
		return r, err
	}

	m := cl.Metrics()
	r.treeHeight, r.maxBatchRuns = cl.TreeHeight(), m.MaxBatchRuns
	r.wavesAssigned, r.parkedGets, r.routeHopsMean = m.WavesAssigned, m.ParkedGets, m.AvgRouteHops()
	for i := 1; i <= rounds; i++ {
		r.stepUS = append(r.stepUS, float64(wall[i]-wall[i-1])/1e3)
	}
	sort.Float64s(r.stepUS)
	var op uint64
	measured := 0
	for _, c := range hist.Ops {
		b, d := c.Born-base, c.Done-base
		if d > 0 && d <= int64(rounds) {
			r.doneInside++
		}
		if b < 0 || d >= int64(len(wall)) {
			continue // a warm-up operation
		}
		measured++
		lat := c.Done - c.Born
		r.roundsSum += lat
		for int64(len(r.latRounds)) <= lat {
			r.latRounds = append(r.latRounds, 0)
		}
		r.latRounds[lat]++
		if traced {
			op++
			tr.add("op", measureSpan, op, wall[b], wall[d])
		}
	}
	if measured != r.ops {
		return r, fmt.Errorf("sim: the history holds %d operations born in the measured rounds, the generator issued %d", measured, r.ops)
	}
	if traced {
		for i := 1; i <= rounds; i++ {
			tr.add("core.step", measureSpan, 0, wall[i-1], wall[i])
		}
	}
	return r, nil
}

// simLedger is the simulator's element accounting: as many completions
// as operations issued, every element enqueued once, and every element a
// dequeue returned enqueued and returned exactly once.
func simLedger(hist *seqcheck.History, issued int64) error {
	if int64(hist.Len()) != issued {
		return fmt.Errorf("sim: %d completions recorded for %d operations issued", hist.Len(), issued)
	}
	state := make(map[dht.Element]uint8, hist.Len())
	for _, c := range hist.Ops {
		if c.Kind == seqcheck.Enqueue {
			if state[c.Elem] != 0 {
				return fmt.Errorf("sim: element %v was enqueued twice", c.Elem)
			}
			state[c.Elem] = 1
		}
	}
	for _, c := range hist.Ops {
		if c.Kind != seqcheck.Dequeue || c.Bottom {
			continue
		}
		switch state[c.Elem] {
		case 1:
			state[c.Elem] = 2
		case 2:
			return fmt.Errorf("sim: element %v was dequeued twice (request %d)", c.Elem, c.ReqID)
		default:
			return fmt.Errorf("sim: element %v was dequeued but never enqueued (request %d)", c.Elem, c.ReqID)
		}
	}
	return nil
}

// runSim is the sim-256 workload.
func runSim(cfg runConfig, tr *tracer, root uint32) (*result, error) {
	rounds := int(simRoundsPerSec * cfg.seconds)
	if rounds < 200 {
		rounds = 200
	}
	res := newResult()
	if !cfg.trace {
		reps, err := runSimReps(cfg, rounds, simReps, false, tr, root, 0)
		if err != nil {
			return nil, err
		}
		agg := aggregateSim(reps)
		res.attempted = agg.attempted
		res.e2e = map[string]float64{
			"setup_s":        agg.setupS,
			"ops_per_s":      agg.opsPerS,
			"latency_p50_ms": agg.latP50,
			"rounds_per_op":  agg.roundsPerOp,
		}
		return res, nil
	}

	sp := tr.begin("untraced", root)
	ref, err := runSimReps(cfg, rounds, simTracedReps, false, tr, sp, 0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("traced", root)
	stop, err := startProfiles(cfg)
	if err != nil {
		return nil, err
	}
	reps, err := runSimReps(cfg, rounds, simTracedReps, true, tr, sp, simTracedReps)
	if perr := stop(); err == nil {
		err = perr
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	refAgg, agg := aggregateSim(ref), aggregateSim(reps)
	res.attempted = refAgg.attempted + agg.attempted
	var d procDelta
	var inflight int64
	var checkMS, kops float64
	for _, r := range reps {
		d.add(r.proc0, r.proc1, r.ops)
		inflight = max(inflight, r.inflightMax)
		checkMS += r.checkMS
		kops += float64(r.historyOps) / 1000
	}
	d.into(res.layer)
	// The simulator has no client, socket or schedule: those layers do
	// no work on this workload, and their share of it is zero.
	for _, name := range []string{
		"client.submit_us_p50", "client.submit_us_p99", "client.wait_us_p50",
		"tcp.bytes_per_op", "tcp.conn_writes_per_op", "tcp.conn_reads_per_op",
		"gen.late_ms_p99", "gen.late_ms_max",
	} {
		res.layer[name] = 0
	}
	// The simulator always runs flat out: its saturated figures are its
	// own wall-clock speed over the traced repetitions.
	res.layer["gen.latency_p99_ms"] = agg.latP99
	res.layer["gen.sat_ops_per_s"] = agg.wallOpsPerS
	res.layer["proc.sat_cpu_us_per_op"] = res.layer["proc.cpu_us_per_op"]
	res.layer["proc.peak_rss_mb"] = peakRSSMB()
	res.layer["core.ticks_per_op"] = agg.roundsPerOp
	res.layer["gen.inflight_max"] = float64(inflight)
	res.layer["seqcheck.check_ms_per_kop"] = checkMS / kops
	res.layer["trace.overhead_share"] = 1 - agg.wallOpsPerS/refAgg.wallOpsPerS
	return res, nil
}

// runSimReps runs n repetitions, numbered from firstRep so that no two
// repetitions of a run share generator randomness.
func runSimReps(cfg runConfig, rounds, n int, traced bool, tr *tracer, parent uint32, firstRep int) ([]simRep, error) {
	var reps []simRep
	for i := 0; i < n; i++ {
		sp := tr.begin("rep", parent)
		r, err := runSimRep(cfg.seed, firstRep+i, rounds, traced, tr, sp)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		runtime.GC() // the finished cluster is garbage: do not bill the next repetition for it
	}
	return reps, nil
}

type simAgg struct {
	attempted                    int64
	setupS, opsPerS, wallOpsPerS float64
	latP50, latP99, roundsPerOp  float64
}

// aggregateSim pools the repetitions. The end-to-end figures are in
// simulated time, simTickMS to the round, so they are exact for a seed
// and move only when the protocol does: operations completed per
// simulated second, the percentiles of Done−Born over every measured
// operation, and its mean in rounds. Set-up time and the simulator's own
// speed are wall-clock, the median over the repetitions.
func aggregateSim(reps []simRep) simAgg {
	var a simAgg
	var setup, wallOps []float64
	var lat []int64
	var roundsSum, n, done, simRounds int64
	for _, r := range reps {
		a.attempted += r.issuedTotal
		setup = append(setup, r.setupS)
		wallOps = append(wallOps, float64(r.ops)/r.wallS)
		for k, c := range r.latRounds {
			for len(lat) <= k {
				lat = append(lat, 0)
			}
			lat[k] += c
		}
		roundsSum += r.roundsSum
		n += int64(r.ops)
		done += int64(r.doneInside)
		simRounds += int64(r.rounds)
	}
	a.setupS, a.wallOpsPerS = median(setup), median(wallOps)
	a.opsPerS = float64(done) / (float64(simRounds) * simTickMS / 1000)
	a.latP50, a.latP99 = histPercentile(lat, 50)*simTickMS, histPercentile(lat, 99)*simTickMS
	a.roundsPerOp = float64(roundsSum) / float64(n)
	return a
}
