// Command skueue-sim runs a single configured Skueue simulation under the
// paper's workload model and reports latency statistics, protocol metrics
// and the sequential-consistency verdict. It opens the public client in
// manual-clock mode, so every run is exactly reproducible from its seed.
//
// Example:
//
//	skueue-sim -n 1000 -rounds 500 -rate 10 -ratio 0.5 -mode queue
package main

import (
	"flag"
	"fmt"
	"os"

	"skueue"
	"skueue/internal/workload"
)

func main() {
	var (
		n       = flag.Int("n", 100, "number of processes")
		seed    = flag.Int64("seed", 1, "random seed")
		mode    = flag.String("mode", "queue", "queue or stack")
		rounds  = flag.Int("rounds", 200, "request generation rounds")
		rate    = flag.Int("rate", 10, "requests per round (0 to use -prob)")
		prob    = flag.Float64("prob", 0, "per-node request probability per round")
		ratio   = flag.Float64("ratio", 0.5, "enqueue/push ratio")
		async   = flag.Bool("async", false, "fully asynchronous message passing")
		drain   = flag.Int64("drain", 100000, "max drain time after generation")
		verbose = flag.Bool("v", false, "print per-figure diagnostics")
	)
	flag.Parse()

	m := skueue.Queue
	if *mode == "stack" {
		m = skueue.Stack
	} else if *mode != "queue" {
		fmt.Fprintln(os.Stderr, "mode must be queue or stack")
		os.Exit(2)
	}
	opts := []skueue.Option{
		skueue.WithManualClock(),
		skueue.WithProcesses(*n),
		skueue.WithSeed(*seed),
		skueue.WithMode(m),
	}
	if *async {
		opts = append(opts, skueue.WithAsync())
	}
	c, err := skueue.Open(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer c.Close()
	spec := workload.Spec{Rounds: *rounds, RequestsPerRound: *rate, PerNodeProb: *prob, EnqRatio: *ratio}
	if *prob > 0 {
		spec.RequestsPerRound = 0
	}
	gen, err := workload.New(c.Cluster(), spec, *seed+7)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if !gen.Run(*drain) {
		fmt.Fprintf(os.Stderr, "did not drain: %d of %d requests finished\n",
			c.Cluster().Finished(), c.Cluster().Issued())
		os.Exit(1)
	}
	st := c.Stats()
	met := c.Metrics()
	fmt.Printf("mode=%s n=%d rounds=%d requests=%d\n", m, *n, *rounds, st.Total)
	fmt.Printf("avg rounds/request: %.2f (max %d)\n", st.AvgRounds, st.MaxRounds)
	wait, tree, route, depth := c.Cluster().Split().Means()
	fmt.Printf("split: wait %.2f + tree %.2f + route %.2f rounds, mean depth %.2f between processes\n", wait, tree, route, depth)
	fmt.Printf("enqueues=%d dequeues=%d bottoms=%d combined=%d\n", st.Enqueues, st.Dequeues, st.Bottoms, st.Combined)
	fmt.Printf("waves=%d emptyWaves=%d declines=%d maxBatchRuns=%d avgRouteHops=%.1f maxRouteHops=%d parkedGets=%d maxQueueSize=%d maxWavesInFlight=%d pipelinedFires=%d\n",
		met.WavesAssigned, met.EmptyWaves, met.Declines, met.MaxBatchRuns, met.AvgRouteHops, met.MaxRouteHops, met.ParkedGets, met.MaxQueueSize,
		met.MaxWavesInFlight, met.PipelinedFires)
	eng := c.Cluster().Engine().Stats()
	fmt.Printf("messages: %d sent (%d within a process)\n", eng.MessagesSent, eng.LocalDelivered)
	if *verbose {
		fmt.Printf("tree height (ATH): %d\n", c.Cluster().TreeHeight())
	}
	if err := c.Check(); err != nil {
		fmt.Printf("sequential consistency: VIOLATED: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("sequential consistency: OK (Definition 1 verified over the full history)")
}
