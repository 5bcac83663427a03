package skueue_test

// Benchmark harness: one benchmark per figure and experiment of the
// paper's evaluation (see DESIGN.md §5), plus BenchmarkClientThroughput
// for the blocking client API's hot path. Each figure benchmark
// regenerates the corresponding data series at bench scale and reports the
// headline quantity via ReportMetric, so `go test -bench=. -benchmem`
// reproduces the shape of every figure. cmd/skueue-experiments prints the
// full series (and -full runs paper-scale sizes).
//
// This file lives in the external test package: the harness drives the
// experiments through the public client layer, so importing it from
// package skueue itself would be an import cycle.

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skueue"
	"skueue/internal/batch"
	"skueue/internal/core"
	"skueue/internal/harness"
	"skueue/internal/server"
	"skueue/internal/workload"
)

// benchOpts are small enough for the benchmark loop but large enough to
// show the figures' shapes.
func benchOpts() harness.Options {
	return harness.Options{
		Seed:        1,
		Sizes:       []int{64, 256},
		Ratios:      []float64{0, 0.5, 1.0},
		Probs:       []float64{0.1, 0.5, 1.0},
		Rounds:      100,
		ReqPerRound: 10,
		Fig4N:       128,
		MaxDrain:    100000,
	}
}

// reportFigure publishes every point of a figure as bench metrics. Metric
// units must not contain whitespace, so labels are kebab-cased.
func reportFigure(b *testing.B, f harness.Figure) {
	b.Helper()
	for _, s := range f.Series {
		label := strings.ReplaceAll(s.Label, " ", "-")
		for _, p := range s.Points {
			b.ReportMetric(p.Y, fmt.Sprintf("%s/x=%g", label, p.X))
		}
	}
}

// BenchmarkFigure2 regenerates paper Fig. 2: queue latency vs n for
// several enqueue ratios.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := harness.Figure2(benchOpts())
		if i == b.N-1 {
			reportFigure(b, f)
		}
	}
}

// BenchmarkFigure3 regenerates paper Fig. 3: stack latency vs n.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := harness.Figure3(benchOpts())
		if i == b.N-1 {
			reportFigure(b, f)
		}
	}
}

// BenchmarkFigure4 regenerates paper Fig. 4: queue vs stack under growing
// per-node request probability.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := harness.Figure4(benchOpts())
		if i == b.N-1 {
			reportFigure(b, f)
		}
	}
}

// BenchmarkBatchSize regenerates E4 (Theorems 18 and 20): max batch size
// under one request per node per round.
func BenchmarkBatchSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := harness.BatchSizes(benchOpts())
		if i == b.N-1 {
			reportFigure(b, f)
		}
	}
}

// BenchmarkFairness regenerates E5 (Lemma 4 / Corollary 19): DHT load
// balance.
func BenchmarkFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := harness.Fairness(benchOpts())
		if i == b.N-1 {
			reportFigure(b, f)
		}
	}
}

// BenchmarkStageBreakdown regenerates E6: measured latency vs the paper's
// 3·ATH + DHT decomposition.
func BenchmarkStageBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := harness.StageBreakdown(benchOpts())
		if i == b.N-1 {
			reportFigure(b, f)
		}
	}
}

// BenchmarkChurnPhases regenerates E7 (Theorem 17): time for join/leave
// bursts to settle.
func BenchmarkChurnPhases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := harness.ChurnPhases(benchOpts())
		if i == b.N-1 {
			reportFigure(b, f)
		}
	}
}

// BenchmarkBaseline regenerates E8: Skueue vs the centralized server queue
// under a total load growing with n.
func BenchmarkBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := harness.Baseline(benchOpts())
		if i == b.N-1 {
			reportFigure(b, f)
		}
	}
}

// BenchmarkProtocolRound measures the raw cost of simulating one
// synchronous round of an idle 1000-process system — the unit everything
// above is built from.
func BenchmarkProtocolRound(b *testing.B) {
	cl, err := core.New(core.Config{Processes: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cl.Run(100) // warm the waves up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Step()
	}
}

// BenchmarkThroughput measures end-to-end operation throughput (requests
// per simulated wall-second of this host) at a moderate size.
func BenchmarkThroughput(b *testing.B) {
	cl, err := core.New(core.Config{Processes: 256, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.New(cl, workload.Spec{
		Rounds: 1 << 30, RequestsPerRound: 10, EnqRatio: 0.5,
	}, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Step()
	}
	b.StopTimer()
	if !cl.Drain(1_000_000) {
		b.Fatal("drain failed")
	}
	if err := cl.CheckConsistency(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(cl.Finished())/b.Elapsed().Seconds(), "requests/s")
}

// BenchmarkClientThroughput measures the blocking-API hot path: many
// producer/consumer goroutines hammering one autopilot client, every call
// a full submit → runner-advance → future-resolution round trip through
// the client mutex.
func BenchmarkClientThroughput(b *testing.B) {
	c, err := skueue.Open(
		skueue.WithProcesses(16),
		skueue.WithSeed(9),
		skueue.WithAutopilotQuantum(8),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	b.SetParallelism(4) // more blocked clients than GOMAXPROCS, like a real server
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		enq := true
		for pb.Next() {
			if enq {
				if err := c.Enqueue(ctx, 1); err != nil {
					b.Error(err)
					return
				}
			} else {
				if _, _, err := c.Dequeue(ctx); err != nil {
					b.Error(err)
					return
				}
			}
			enq = !enq
		}
	})
	b.StopTimer()
	if err := c.Check(); err != nil {
		b.Fatal(err)
	}
	ops := c.Stats().Total
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "client-ops/s")
}

// BenchmarkStackCombiningAblation quantifies §VI local combining: ops per
// second with and without combining at full request rate (the uncombined
// stack is also unsound — see DESIGN.md §7 — so it runs the queue-safe
// load shape only briefly).
func BenchmarkStackCombiningAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cl, err := core.New(core.Config{Processes: 64, Seed: 4, Mode: batch.Stack})
		if err != nil {
			b.Fatal(err)
		}
		gen, _ := workload.New(cl, workload.Spec{Rounds: 100, PerNodeProb: 1.0, EnqRatio: 0.5}, 5)
		if !gen.Run(100000) {
			b.Fatal("drain failed")
		}
		if i == b.N-1 {
			st := cl.Metrics()
			b.ReportMetric(float64(st.CombinedOps), "combined-ops")
			b.ReportMetric(float64(st.MaxBatchRuns), "max-batch-runs")
		}
	}
}

// BenchmarkDurableThroughput measures the durable-mode hot path: a
// single-member loopback server with a state directory (operation
// journal + write-ahead snapshots) — one member, so the figure isolates
// the journal's fsync discipline instead of inter-member protocol hops —
// and 8 remote clients each keeping a 32-deep pipeline of asynchronous
// enqueues. The journal group-commits: one fsync per batch, off the
// runner goroutine. The sub-benchmark keeps the name the committed
// artifacts use; EXPERIMENTS.md also records the 2 173 ops/s of the
// fsync-per-operation mode this replaced (removed; historical row).
func BenchmarkDurableThroughput(b *testing.B) {
	b.Run("group-commit", func(b *testing.B) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		s, err := server.New(server.Config{
			Listener: l, Seed: 11, Index: 0, Members: []string{l.Addr().String()},
			Tick:     200 * time.Microsecond,
			StateDir: filepath.Join(b.TempDir(), "m0"),
			// Snapshots far apart: the figure isolates the journal's
			// fsync cost, not snapshot churn.
			SnapshotEvery: time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()

		const clients = 8
		const depth = 32 // async ops in flight per client
		cs := make([]*skueue.Client, clients)
		for i := range cs {
			c, err := skueue.Open(skueue.WithRemote(l.Addr().String()))
			if err != nil {
				b.Fatal(err)
			}
			cs[i] = c
			defer c.Close()
		}

		b.ResetTimer()
		var ops atomic.Int64
		var wg sync.WaitGroup
		per := b.N/clients + 1
		for _, c := range cs {
			wg.Add(1)
			go func(c *skueue.Client) {
				defer wg.Done()
				ctx := context.Background()
				fs := make([]*skueue.Future, 0, depth)
				flush := func() bool {
					for _, f := range fs {
						if err := f.Wait(ctx); err != nil {
							b.Error(err)
							return false
						}
					}
					ops.Add(int64(len(fs)))
					fs = fs[:0]
					return true
				}
				for i := 0; i < per; i++ {
					f, err := c.EnqueueAsync(skueue.AnyProcess, int64(i))
					if err != nil {
						b.Error(err)
						return
					}
					fs = append(fs, f)
					if len(fs) == depth && !flush() {
						return
					}
				}
				flush()
			}(c)
		}
		wg.Wait()
		b.StopTimer()
		b.ReportMetric(float64(ops.Load())/b.Elapsed().Seconds(), "durable-ops/s")
	})
}

// BenchmarkRemoteThroughput measures the networked path end to end: a
// 3-member loopback TCP cluster (in-process servers), 8 concurrent remote
// clients, each issuing blocking enqueue/dequeue pairs over the wire. The
// figure covers the full stack — value codec, framing, member-to-member
// protocol hops, completion acks — and is the baseline for EXPERIMENTS.md
// §"Networked benchmark".
func BenchmarkRemoteThroughput(b *testing.B) {
	lis := make([]net.Listener, 3)
	addrs := make([]string, 3)
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lis[i] = l
		addrs[i] = l.Addr().String()
	}
	srvs := make([]*server.Server, 3)
	for i := range srvs {
		s, err := server.New(server.Config{
			Listener: lis[i], Seed: 7, Index: i, Members: addrs,
			Tick: 200 * time.Microsecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		srvs[i] = s
		defer s.Close()
	}

	const clients = 8
	cs := make([]*skueue.Client, clients)
	for i := range cs {
		c, err := skueue.Open(skueue.WithRemote(addrs[i%len(addrs)]))
		if err != nil {
			b.Fatal(err)
		}
		cs[i] = c
		defer c.Close()
	}

	b.ResetTimer()
	var ops atomic.Int64
	var wg sync.WaitGroup
	per := b.N/clients + 1
	for _, c := range cs {
		wg.Add(1)
		go func(c *skueue.Client) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < per; i++ {
				if err := c.Enqueue(ctx, int64(i)); err != nil {
					b.Error(err)
					return
				}
				if _, _, err := c.Dequeue(ctx); err != nil {
					b.Error(err)
					return
				}
				ops.Add(2)
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(ops.Load())/b.Elapsed().Seconds(), "net-ops/s")
	if err := cs[0].Check(); err != nil {
		b.Fatal(err)
	}
}
