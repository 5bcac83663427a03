package skueue_test

// BenchmarkClientThroughput is the one benchmark of the in-process
// autopilot client (skueue.Open without WithRemote), the only path that
// neither the bench/ module nor cmd/skueue-experiments drives. Run it with
//
//	go test -run '^$' -bench ClientThroughput .
//
// The paper's figures are printed by cmd/skueue-experiments, and every
// other throughput and latency figure is a workload or per-layer metric of
// the bench/ module (go run -C bench .).

import (
	"context"
	"testing"

	"skueue"
)

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
