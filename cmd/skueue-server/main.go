// Command skueue-server hosts one member of a networked Skueue cluster:
// its share of the protocol's virtual nodes runs over the TCP transport,
// and the same port serves remote clients (skueue.Open with WithRemote).
//
// Bootstrap a 3-member cluster on one machine:
//
//	skueue-server -addr 127.0.0.1:7001 -index 0 -members 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	skueue-server -addr 127.0.0.1:7002 -index 1 -members 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	skueue-server -addr 127.0.0.1:7003 -index 2 -members 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//
// All bootstrap members must agree on -members, -procs, -seed, -mode and
// (in heap mode) -heap-levels; the topology is derived deterministically
// from them, so the members wire themselves without any coordination
// traffic.
//
// Add a fourth member later by pointing it at the seed (member 0):
//
//	skueue-server -addr 127.0.0.1:7004 -join 127.0.0.1:7001
//
// The newcomer is admitted by the seed and integrated through the paper's
// JOIN protocol (§IV-A).
//
// Fail-stop recovery: give each member a -state directory and it
// persists write-ahead snapshots of its DHT fragment and queue, stack or
// heap state (all -mode values are recoverable), plus an operation journal
// that makes client operations exactly-once across a crash. A crashed
// member restarts from the snapshot with the same flags — it re-submits
// the journaled operations the snapshot misses, re-announces its address
// through the seed (-join), and its peers replay everything else:
//
//	skueue-server -addr 127.0.0.1:7002 -state /var/lib/skueue/m1 -join 127.0.0.1:7001
//
// -give-up bounds how long the member waits for an unreachable peer (or
// seed) before failing pending operations (or exiting) with a clear
// error instead of blocking forever; 0 waits indefinitely.
//
// Durable-mode throughput is governed by the journal's group commit:
// instead of fsyncing every operation on the submission path, a journal
// writer coalesces concurrent operations into one write+fsync per batch
// and releases their confirmations only after the sync — the same
// durability contract, a fraction of the disk syncs. -journal-batch-delay
// deliberately holds a batch open (until 64 operations are staged) to
// accumulate more operations: zero (the default) adds no latency —
// batches only form while a previous fsync is in flight — while e.g. 2ms
// trades up to that much confirmation latency for fewer, larger syncs on
// slow disks:
//
//	skueue-server -addr 127.0.0.1:7002 -state /var/lib/skueue/m1 \
//	    -join 127.0.0.1:7001 -journal-batch-delay 2ms
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"skueue/internal/server"
	"skueue/internal/transport"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7001", "listen address")
		seed       = flag.Int64("seed", 1, "cluster-wide seed (bootstrap members must agree)")
		mode       = flag.String("mode", "queue", "semantics: queue, stack or heap")
		heapLvls   = flag.Int("heap-levels", 0, "priority levels in heap mode (default 4)")
		index      = flag.Int("index", 0, "this member's index into -members")
		members    = flag.String("members", "", "comma-separated bootstrap member addresses")
		procs      = flag.Int("procs", 0, "total bootstrap processes (default: one per member)")
		join       = flag.String("join", "", "join a running cluster via this seed address (ignores bootstrap flags)")
		state      = flag.String("state", "", "state directory for fail-stop snapshots and the operation journal (empty: no persistence)")
		snapEv     = flag.Duration("snapshot-every", 250*time.Millisecond, "write-ahead snapshot cadence (with -state)")
		batchDelay = flag.Duration("journal-batch-delay", 0, "hold a journal batch open this long, or until 64 ops are staged, before the fsync (0: flush when idle)")
		giveUp     = flag.Duration("give-up", 0, "declare an unreachable member dead after this long (0: wait forever)")
		tick       = flag.Duration("tick", time.Millisecond, "protocol TIMEOUT cadence: the first wave, the churn clock and the unit operation rounds are counted in; waves fire when they carry work and an idle cluster is silent, so latency is hops, not ticks")
		wanLatency = flag.Duration("wan-latency", 0, "WAN shaping: base one-way delay added to inbound peer frames")
		wanJitter  = flag.Duration("wan-jitter", 0, "WAN shaping: uniform extra delay in [0, jitter)")
		wanLoss    = flag.Float64("wan-loss", 0, "WAN shaping: per-attempt loss probability in [0, 1), charged as retransmission delay")
		verbose    = flag.Bool("v", false, "log transport diagnostics")
	)
	flag.Parse()

	shape := transport.Shape{Latency: *wanLatency, Jitter: *wanJitter, Loss: *wanLoss}
	if err := shape.Validate(); err != nil {
		log.Fatalf("skueue-server: %v", err)
	}

	cfg := server.Config{
		Addr:              *addr,
		Seed:              *seed,
		Mode:              *mode,
		HeapLevels:        *heapLvls,
		Tick:              *tick,
		Join:              *join,
		StateDir:          *state,
		SnapshotEvery:     *snapEv,
		JournalBatchDelay: *batchDelay,
		GiveUp:            *giveUp,
		Shape:             shape,
	}
	if *join == "" {
		if *members == "" {
			fmt.Fprintln(os.Stderr, "skueue-server: need -members for bootstrap or -join for admission")
			os.Exit(2)
		}
		cfg.Index = *index
		cfg.Members = strings.Split(*members, ",")
		cfg.Procs = *procs
	}
	if *verbose {
		cfg.Logf = log.Printf
	}

	s, err := server.New(cfg)
	if err != nil {
		log.Fatalf("skueue-server: %v", err)
	}
	if *join != "" {
		log.Printf("skueue-server: joined cluster via %s, serving on %s", *join, s.Addr())
	} else {
		log.Printf("skueue-server: member %d of %d serving on %s (mode=%s seed=%d)",
			*index, len(cfg.Members), s.Addr(), *mode, *seed)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("skueue-server: shutting down")
	s.Close()
}
