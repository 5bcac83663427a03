// Command skueue-chaos is the scale-out chaos and capacity harness CLI:
// it launches large Skueue clusters, drives sustained mixed workloads
// under WAN shaping and fault storms, verifies every run against the
// paper's Definition 1, and writes a machine-readable BENCH_<scenario>.json
// so runs accumulate into a perf trajectory across commits.
//
// Two scenario families:
//
//	# In-process scaling sweep: simulator clusters at several member
//	# counts, each riding out a join/leave churn storm under a WAN
//	# profile. Latency is reported in simulated rounds (protocol
//	# fidelity), throughput in completed ops per wall-clock second
//	# (harness capacity).
//	skueue-chaos -scenario scaling -members 16,32,64,100 \
//	    -rounds 120 -requests-per-round 4 -joins 3 -leaves 3 \
//	    -wan-latency 2ms -wan-jitter 2ms -wan-loss 0.02 -out .
//
//	# Multi-process kill/restart storm: real skueue-server processes on
//	# loopback with durable state, remote clients driving traffic while
//	# members are SIGKILLed inside journal group-commit windows and
//	# restarted from their state directories. Exact element accounting
//	# plus the Definition 1 check must both pass for the run to count.
//	# By default workers ride durable client sessions (-sessions=true):
//	# kills cost latency, not outcomes, and each worker's session order
//	# is verified against the merged history; -sessions=false reverts to
//	# ephemeral fail-fast connections.
//	skueue-chaos -scenario proc -proc-members 16 -workers 8 \
//	    -ops-per-worker 150 -kills 3 -out .
//
// The proc scenario needs a skueue-server binary; with no -server-bin it
// builds one with `go build` (run from inside the repo).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"skueue"
	"skueue/internal/chaos"
	"skueue/internal/transport"
)

func main() {
	var (
		scenario = flag.String("scenario", "scaling", "scenario: scaling (in-process sweep) or proc (multi-process kill/restart storm)")
		mode     = flag.String("mode", "queue", "semantics: queue, stack, or heap (proc only)")
		seed     = flag.Int64("seed", 1, "random seed (runs are reproducible from it)")
		out      = flag.String("out", ".", "directory for the BENCH_<scenario>.json file")
		verbose  = flag.Bool("v", false, "log scenario progress")

		// WAN shaping (both scenario families).
		wanLatency = flag.Duration("wan-latency", 0, "WAN shaping: base one-way delay per message")
		wanJitter  = flag.Duration("wan-jitter", 0, "WAN shaping: uniform extra delay in [0, jitter)")
		wanLoss    = flag.Float64("wan-loss", 0, "WAN shaping: per-attempt loss probability in [0, 1), charged as retransmission delay")
		wanRTO     = flag.Duration("wan-rto", 0, "WAN shaping: retransmission timeout (default 4x latency)")
		roundLen   = flag.Duration("round-length", 0, "simulated duration of one synchronous round (default 1ms; scaling only)")

		// Scaling sweep (in-process simulator).
		members  = flag.String("members", "16,32,64", "comma-separated member counts for the scaling sweep")
		rounds   = flag.Int("rounds", 120, "request generation rounds per point")
		rpr      = flag.Int("requests-per-round", 4, "requests per generation round")
		enqRatio = flag.Float64("enq-ratio", 0.6, "probability an op is an enqueue/push")
		joins    = flag.Int("joins", 2, "churn storm joins per point (scaling)")
		leaves   = flag.Int("leaves", 2, "churn storm leaves per point (scaling)")
		maxDrain = flag.Int64("max-drain", 0, "drain round budget per point (0: default)")

		// Multi-process storm.
		serverBin   = flag.String("server-bin", "", "skueue-server binary (empty: go build one, requires running inside the repo)")
		procMembers = flag.Int("proc-members", 8, "cluster size for the proc scenario")
		workers     = flag.Int("workers", 8, "concurrent client workers (proc)")
		opsPer      = flag.Int("ops-per-worker", 150, "operations per worker (proc)")
		kills       = flag.Int("kills", 2, "kill/restart pairs in the storm (proc)")
		stormStart  = flag.Duration("storm-start", 300*time.Millisecond, "first kill offset from traffic start (proc)")
		stormEvery  = flag.Duration("storm-every", 900*time.Millisecond, "nominal spacing between kills (proc)")
		downtime    = flag.Duration("storm-downtime", 250*time.Millisecond, "victim downtime before restart (proc)")
		batchWindow = flag.Duration("batch-window", 2*time.Millisecond, "journal group-commit window the kills are phase-aligned into (proc)")
		snapEvery   = flag.Duration("snapshot-every", 50*time.Millisecond, "server snapshot cadence (proc)")
		tick        = flag.Duration("tick", 500*time.Microsecond, "server protocol TIMEOUT cadence (proc)")
		batchDelay  = flag.Duration("journal-batch-delay", 2*time.Millisecond, "server journal batch hold time (proc; should match -batch-window)")
		sessions    = flag.Bool("sessions", true, "drive proc traffic through durable client sessions (WithSession + reconnect) instead of ephemeral fail-fast connections")
		stateDir    = flag.String("state-dir", "", "state/log directory for the proc cluster (empty: fresh temp dir)")
		heapLevels  = flag.Int("heap-levels", 4, "priority levels for -mode heap (proc)")
	)
	flag.Parse()

	var m skueue.Mode
	switch *mode {
	case "queue":
		m = skueue.Queue
	case "stack":
		m = skueue.Stack
	case "heap":
		m = skueue.Heap
	default:
		log.Fatalf("skueue-chaos: unknown -mode %q (want queue, stack, or heap)", *mode)
	}
	wan := skueue.WANProfile{
		Latency: *wanLatency, Jitter: *wanJitter, Loss: *wanLoss,
		RTO: *wanRTO, RoundLength: *roundLen,
	}
	shape := transport.Shape{Latency: *wanLatency, Jitter: *wanJitter, Loss: *wanLoss, RTO: *wanRTO, Round: *roundLen}
	if err := shape.Validate(); err != nil {
		log.Fatalf("skueue-chaos: %v", err)
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}

	bench := &chaos.Bench{Scenario: *scenario, Mode: *mode, Seed: *seed, WAN: shape.String()}

	switch *scenario {
	case "scaling", "storm":
		if m == skueue.Heap {
			log.Fatalf("skueue-chaos: the in-process scaling sweep drives the plain enqueue/dequeue workload; heap mode runs under -scenario proc")
		}
		sizes, err := parseSizes(*members)
		if err != nil {
			log.Fatalf("skueue-chaos: %v", err)
		}
		bench.Workload = fmt.Sprintf("%d rounds x %d req/round, enq %.2f, churn %d+%d",
			*rounds, *rpr, *enqRatio, *joins, *leaves)
		for _, n := range sizes {
			sc := chaos.SimScenario{
				Mode: m, Members: n, Rounds: *rounds, RequestsPerRound: *rpr,
				EnqRatio: *enqRatio, MaxDrain: *maxDrain, Seed: *seed,
				WAN: wan, Joins: *joins, Leaves: *leaves,
			}
			logf("skueue-chaos: running %d members...", n)
			res, err := chaos.RunSim(sc)
			if err != nil {
				log.Fatalf("skueue-chaos: %v", err)
			}
			p := res.Point(n)
			bench.AddPoint(p)
			fmt.Printf("members=%-4d ops=%-6d ops/s=%-9.0f p50=%dr p99=%dr p999=%dr avg=%.1fr faults=%d/%d\n",
				n, p.Ops, p.OpsPerSec, p.P50, p.P99, p.P999, p.AvgRounds, p.Faults.Joins, p.Faults.Leaves)
		}

	case "proc":
		bin, cleanup, err := ensureServerBin(*serverBin)
		if err != nil {
			log.Fatalf("skueue-chaos: %v", err)
		}
		defer cleanup()
		kindWord := "ephemeral"
		if *sessions {
			kindWord = "sessions"
		}
		bench.Workload = fmt.Sprintf("%d workers x %d ops, enq %.2f, %d kills, %s",
			*workers, *opsPer, *enqRatio, *kills, kindWord)
		lv := 0
		if m == skueue.Heap {
			lv = *heapLevels
			// Heap runs get their own BENCH file so the nightly's queue
			// and heap storms don't overwrite each other's artifact.
			bench.Scenario = "proc-heap"
		}
		sc := chaos.ProcScenario{
			Bin: bin, Members: *procMembers, Mode: *mode, HeapLevels: lv, Seed: *seed,
			Workers: *workers, OpsPerWorker: *opsPer, EnqRatio: *enqRatio,
			Sessions: *sessions,
			Storm: chaos.StormSpec{
				Kills: *kills, Start: *stormStart, Every: *stormEvery,
				Downtime: *downtime, BatchWindow: *batchWindow,
			},
			WANLatency: *wanLatency, WANJitter: *wanJitter, WANLoss: *wanLoss,
			SnapshotEvery: *snapEvery, Tick: *tick,
			JournalBatchDelay: *batchDelay,
			BaseDir:           *stateDir, Logf: logf,
		}
		res, err := chaos.RunProc(sc)
		if err != nil {
			log.Fatalf("skueue-chaos: %v", err)
		}
		p := res.Point()
		bench.AddPoint(p)
		fmt.Printf("members=%-4d ops=%-6d ops/s=%-9.0f p50=%dus p99=%dus p999=%dus kills=%d confirmed=%d maybe=%d drained=%d\n",
			p.Members, p.Ops, p.OpsPerSec, p.P50, p.P99, p.P999,
			p.Faults.Kills, res.Confirmed, res.MaybeEnqueued, res.Drained)

	default:
		log.Fatalf("skueue-chaos: unknown -scenario %q (want scaling or proc)", *scenario)
	}

	bench.Stamp(".")
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatalf("skueue-chaos: %v", err)
	}
	path, err := bench.WriteFile(*out)
	if err != nil {
		log.Fatalf("skueue-chaos: %v", err)
	}
	fmt.Printf("wrote %s\n", path)
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -members entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-members is empty")
	}
	return out, nil
}

// ensureServerBin returns the skueue-server binary to use, building one
// into a temp dir when none was supplied.
func ensureServerBin(path string) (string, func(), error) {
	if path != "" {
		return path, func() {}, nil
	}
	dir, err := os.MkdirTemp("", "skueue-chaos-bin-*")
	if err != nil {
		return "", nil, err
	}
	bin := filepath.Join(dir, "skueue-server")
	out, err := exec.Command("go", "build", "-o", bin, "skueue/cmd/skueue-server").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, fmt.Errorf("building skueue-server (pass -server-bin, or run inside the repo): %v\n%s", err, out)
	}
	return bin, func() { os.RemoveAll(dir) }, nil
}
