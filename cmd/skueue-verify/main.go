// Command skueue-verify tortures the protocol for sequential consistency:
// many seeds of adversarial asynchronous schedules with churn, for the
// queue, the stack and the heap (three priority levels), and of the
// synchronous churn schedule the core tests share (core.RunSchedule: three
// joins and two leaves among five processes), each execution checked
// against Definition 1 (its priority generalization for the heap).
// With -stack-no-wait it instead demonstrates the §VI counterexample by
// disabling the stage-4 completion wait and counting how many seeds
// violate consistency (E9 in DESIGN.md).
//
// The torture loop runs the public client in manual-clock mode and
// injects requests at every virtual node (not only the per-process client
// node) through the advanced Cluster surface, to keep the schedule
// coverage the adversarial test needs.
package main

import (
	"flag"
	"fmt"
	"os"

	"skueue"
	"skueue/internal/core"
	"skueue/internal/xrand"
)

// heapLevels is the number of priority levels of the heap runs.
const heapLevels = 3

func runSeed(mode skueue.Mode, seed int64, churn, noWait bool) (drained bool, err error) {
	opts := []skueue.Option{
		skueue.WithManualClock(),
		skueue.WithProcesses(4),
		skueue.WithSeed(seed),
		skueue.WithMode(mode),
		skueue.WithAsync(),
		skueue.WithAsyncDelays(16, 5),
	}
	if mode == skueue.Heap {
		opts = append(opts, skueue.WithHeap(heapLevels))
	}
	if noWait {
		opts = append(opts, skueue.WithoutStage4Wait(), skueue.WithoutLocalCombining())
	}
	c, e := skueue.Open(opts...)
	if e != nil {
		return false, e
	}
	defer c.Close()
	cl := c.Cluster()
	rng := xrand.New(seed)
	if err := c.Run(10); err != nil {
		return false, err
	}
	for burst := 0; burst < 25; burst++ {
		clients := cl.ActiveClients()
		target := clients[rng.Intn(len(clients))]
		if rng.Bool(0.5) {
			pri := int32(0)
			if mode == skueue.Heap {
				pri = int32(rng.Intn(heapLevels))
			}
			cl.EnqueuePriBlob(target, pri, nil)
		} else {
			cl.Dequeue(target)
		}
		if churn {
			switch burst {
			case 8:
				if _, err := c.Admin().Join(0); err != nil {
					return false, err
				}
			case 16:
				if err := c.Admin().Leave(2); err != nil {
					return false, err
				}
			}
		}
		if err := c.Run(int64(2 + rng.Intn(25))); err != nil {
			return false, err
		}
	}
	ok, err := c.Drain(500000)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil
	}
	return true, c.Check()
}

// runSchedule runs the core churn schedule for seed, lets its churn settle
// and drains it: a run drains when its joins and leaves have settled and
// every operation finished.
func runSchedule(seed int64) (drained bool, err error) {
	cl, err := core.RunSchedule(seed, nil)
	if err != nil {
		return false, err
	}
	settled := cl.Engine().RunUntil(func() bool { return cl.ChurnQuiescent() && cl.VerifyTopology() == nil }, 60000)
	if !settled || !cl.Drain(60000) {
		return false, nil
	}
	return true, cl.CheckConsistency()
}

func main() {
	var (
		seeds  = flag.Int("seeds", 50, "number of seeds per configuration")
		noWait = flag.Bool("stack-no-wait", false, "demonstrate the §VI counterexample instead")
	)
	flag.Parse()

	if *noWait {
		violations := 0
		for s := int64(0); s < int64(*seeds); s++ {
			drained, err := runSeed(skueue.Stack, s, false, true)
			if !drained || err != nil {
				violations++
			}
		}
		fmt.Printf("stack WITHOUT stage-4 wait: %d/%d seeds violated sequential consistency\n", violations, *seeds)
		fmt.Println("(each violation is a stuck or misdelivered pop — exactly the race §VI's fix prevents)")
		return
	}

	type config struct {
		name string
		run  func(seed int64) (drained bool, err error)
	}
	var configs []config
	for _, mode := range []skueue.Mode{skueue.Queue, skueue.Stack, skueue.Heap} {
		for _, churn := range []bool{false, true} {
			configs = append(configs, config{fmt.Sprintf("%s churn=%v", mode, churn), func(seed int64) (bool, error) {
				return runSeed(mode, seed, churn, false)
			}})
		}
	}
	configs = append(configs, config{"queue schedule", runSchedule})
	fail := 0
	for _, c := range configs {
		for s := int64(0); s < int64(*seeds); s++ {
			drained, err := c.run(s)
			switch {
			case !drained:
				fmt.Printf("FAIL %s seed=%d: did not drain\n", c.name, s)
				fail++
			case err != nil:
				fmt.Printf("FAIL %s seed=%d: %v\n", c.name, s, err)
				fail++
			}
		}
		fmt.Printf("%s: %d seeds checked\n", c.name, *seeds)
	}
	if fail > 0 {
		fmt.Printf("%d runs did not drain or violated sequential consistency\n", fail)
		os.Exit(1)
	}
	fmt.Println("all executions sequentially consistent (Definition 1)")
}
