// Package harness regenerates the paper's evaluation (§VII): Figure 2
// (queue latency scaling), Figure 3 (stack latency scaling), Figure 4
// (latency under growing per-node request rates, queue vs stack), plus the
// additional experiments E4-E8 from DESIGN.md that measure the paper's
// analytical claims (batch sizes, DHT fairness, the 3·ATH+DHT latency
// decomposition, update-phase durations, and the centralized-server
// baseline).
//
// Every run also verifies sequential consistency of the full execution, so
// regenerating the figures doubles as an end-to-end correctness check.
package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"skueue"
	"skueue/internal/baseline"
	"skueue/internal/workload"
	"skueue/internal/xrand"
)

func newRng(seed int64) *xrand.RNG { return xrand.New(seed) }

// Point is one measurement.
type Point struct {
	X, Y float64
}

// Series is one labelled curve.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a rendered experiment result.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Options scales the experiments. The paper runs up to n = 100000
// processes for 1000 rounds; the defaults are laptop-sized and preserve
// the shapes (see DESIGN.md §5).
type Options struct {
	Seed        int64
	Sizes       []int     // process counts for the n sweeps
	Ratios      []float64 // enqueue/push ratios (Figures 2, 3)
	Rounds      int       // request generation rounds
	ReqPerRound int       // requests per round (Figures 2, 3)
	Probs       []float64 // per-node probabilities (Figure 4)
	Fig4N       int       // process count for Figure 4
	MaxDrain    int64     // drain budget after generation stops
}

// Defaults returns quick (laptop) or full (paper-scale) options.
func Defaults(full bool) Options {
	o := Options{
		Seed:        1,
		Ratios:      []float64{0, 0.25, 0.5, 0.75, 1.0},
		Probs:       []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1.0},
		ReqPerRound: 10,
	}
	if full {
		o.Sizes = []int{10000, 25000, 50000, 75000, 100000}
		o.Rounds = 1000
		o.Fig4N = 10000
		o.MaxDrain = 20000
	} else {
		o.Sizes = []int{100, 250, 500, 1000, 2000}
		o.Rounds = 200
		o.Fig4N = 500
		o.MaxDrain = 20000
	}
	return o
}

// RunOne drives a single configured deployment through a workload and
// returns the summary statistics. Construction goes through the public
// client layer in manual-clock mode so every run is exactly reproducible;
// the workload generator keeps driving the underlying cluster directly.
// A non-zero wan profile shapes message delivery, and churn events are
// scheduled into the generator — the chaos harness uses both to run its
// storm scenarios through the same certified driver as the experiments.
// It panics on drain failure or inconsistency — a run that cannot certify
// its own execution must not report.
func RunOne(mode skueue.Mode, procs int, spec workload.Spec, seed, maxDrain int64, wan skueue.WANProfile, churn ...workload.ChurnEvent) (skueue.Stats, skueue.Metrics, *skueue.Client) {
	c, err := skueue.Open(
		skueue.WithManualClock(),
		skueue.WithProcesses(procs),
		skueue.WithSeed(seed),
		skueue.WithMode(mode),
		skueue.WithWAN(wan),
	)
	if err != nil {
		panic(err)
	}
	gen, err := workload.New(c.Cluster(), spec, seed+7)
	if err != nil {
		panic(err)
	}
	gen.Schedule(churn...)
	if !gen.Run(maxDrain) {
		panic(fmt.Sprintf("harness: %s n=%d did not drain (%d/%d)",
			mode, procs, c.Cluster().Finished(), c.Cluster().Issued()))
	}
	if err := c.Check(); err != nil {
		panic(fmt.Sprintf("harness: consistency violated: %v", err))
	}
	return c.Stats(), c.Metrics(), c
}

// runOne is RunOne without shaping or churn (the classic experiments).
func runOne(mode skueue.Mode, procs int, spec workload.Spec, seed int64, maxDrain int64) (skueue.Stats, skueue.Metrics, *skueue.Client) {
	return RunOne(mode, procs, spec, seed, maxDrain, skueue.WANProfile{})
}

// latencySweep is the shared engine behind Figures 2 and 3.
func latencySweep(id, title string, mode skueue.Mode, o Options) Figure {
	fig := Figure{
		ID: id, Title: title,
		XLabel: "n (processes)", YLabel: "avg rounds per request",
	}
	for _, ratio := range o.Ratios {
		s := Series{Label: fmt.Sprintf("p=%.2f", ratio)}
		for _, n := range o.Sizes {
			spec := workload.Spec{
				Rounds: o.Rounds, RequestsPerRound: o.ReqPerRound, EnqRatio: ratio,
			}
			st, _, _ := runOne(mode, n, spec, o.Seed+int64(n), o.MaxDrain)
			s.Points = append(s.Points, Point{X: float64(n), Y: st.AvgRounds})
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("%d requests/round for %d rounds, then drained; p is the enqueue (push) ratio.", o.ReqPerRound, o.Rounds))
	return fig
}

// Figure2 reproduces the queue latency scaling (paper Fig. 2).
func Figure2(o Options) Figure {
	return latencySweep("fig2", "Queue: avg rounds per request vs n (paper Fig. 2)", skueue.Queue, o)
}

// Figure3 reproduces the stack latency scaling (paper Fig. 3).
func Figure3(o Options) Figure {
	return latencySweep("fig3", "Stack: avg rounds per request vs n (paper Fig. 3)", skueue.Stack, o)
}

// Figure4 reproduces the request-rate experiment (paper Fig. 4): fixed n,
// every node generates a request with probability p each round, ratio 0.5.
func Figure4(o Options) Figure {
	fig := Figure{
		ID: "fig4", Title: fmt.Sprintf("Queue vs stack under per-node request probability, n=%d (paper Fig. 4)", o.Fig4N),
		XLabel: "request probability", YLabel: "avg rounds per request",
	}
	for _, mode := range []skueue.Mode{skueue.Queue, skueue.Stack} {
		s := Series{Label: mode.String()}
		for _, p := range o.Probs {
			spec := workload.Spec{Rounds: o.Rounds, PerNodeProb: p, EnqRatio: 0.5}
			st, _, _ := runOne(mode, o.Fig4N, spec, o.Seed+int64(p*1000), o.MaxDrain)
			s.Points = append(s.Points, Point{X: p, Y: st.AvgRounds})
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		"The stack improves with load: local combining answers co-located push/pop pairs immediately (§VI).")
	return fig
}

// BatchSizes measures the maximum batch size (runs per batch) under one
// request per node per round — Theorem 18 bounds the queue's batches by
// O(log n); Theorem 20 bounds the stack's by a constant.
func BatchSizes(o Options) Figure {
	fig := Figure{
		ID: "batchsize", Title: "Max batch size (runs) at full request rate (Thm. 18 / Thm. 20)",
		XLabel: "n (processes)", YLabel: "max runs per batch",
	}
	for _, mode := range []skueue.Mode{skueue.Queue, skueue.Stack} {
		s := Series{Label: mode.String()}
		for _, n := range o.Sizes {
			spec := workload.Spec{Rounds: o.Rounds, PerNodeProb: 1.0, EnqRatio: 0.5}
			_, m, _ := runOne(mode, n, spec, o.Seed+int64(n)*3, o.MaxDrain)
			s.Points = append(s.Points, Point{X: float64(n), Y: float64(m.MaxBatchRuns)})
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes, "One request per node per round; queue batches stay at 2 runs, far inside Theorem 18's O(log n), and stack batches <= 3 runs.")
	return fig
}

// Fairness measures the DHT load balance (Lemma 4, Corollary 19): the
// ratio of the most loaded node to the mean, after an enqueue-only fill.
func Fairness(o Options) Figure {
	fig := Figure{
		ID: "fairness", Title: "DHT load balance after enqueue-only fill (Lemma 4 / Cor. 19)",
		XLabel: "n (processes)", YLabel: "load",
	}
	maxMean := Series{Label: "max/mean"}
	cv := Series{Label: "coeff-of-variation"}
	for _, n := range o.Sizes {
		spec := workload.Spec{Rounds: o.Rounds, RequestsPerRound: o.ReqPerRound, EnqRatio: 1.0}
		_, _, c := runOne(skueue.Queue, n, spec, o.Seed+int64(n)*5, o.MaxDrain)
		sizes := c.Cluster().StoreSizes()
		var sum, sumSq float64
		maxLoad := 0.0
		for _, s := range sizes {
			f := float64(s)
			sum += f
			sumSq += f * f
			if f > maxLoad {
				maxLoad = f
			}
		}
		mean := sum / float64(len(sizes))
		variance := sumSq/float64(len(sizes)) - mean*mean
		maxMean.Points = append(maxMean.Points, Point{X: float64(n), Y: maxLoad / mean})
		cv.Points = append(cv.Points, Point{X: float64(n), Y: math.Sqrt(variance) / mean})
	}
	fig.Series = []Series{maxMean, cv}
	fig.Notes = append(fig.Notes, "Consistent hashing spreads elements; max/mean stays bounded as n grows.")
	return fig
}

// StageBreakdown sets the measured average beside two models of it: the
// paper's decomposition (§VII-B), 3·ATH + average DHT routing hops, and the
// one the code implements, where only a hop between processes costs a
// round: the wait for a fire, one round per tree edge between processes up
// and down again (twice the mean depth, Cluster.Split), and the route's hops
// between processes (Metrics.AvgRouteRingHops).
func StageBreakdown(o Options) Figure {
	fig := Figure{
		ID: "stages", Title: "Latency decomposition: measured vs 3·ATH + DHT hops (§VII-B)",
		XLabel: "n (processes)", YLabel: "rounds",
	}
	measured := Series{Label: "measured avg"}
	predicted := Series{Label: "3·ATH + route"}
	model := Series{Label: "rounds model"}
	ath := Series{Label: "ATH (tree height)"}
	for _, n := range o.Sizes {
		spec := workload.Spec{Rounds: o.Rounds, RequestsPerRound: o.ReqPerRound, EnqRatio: 0.5}
		st, m, c := runOne(skueue.Queue, n, spec, o.Seed+int64(n)*7, o.MaxDrain)
		h := float64(c.Cluster().TreeHeight())
		wait, _, _, depth := c.Cluster().Split().Means()
		measured.Points = append(measured.Points, Point{X: float64(n), Y: st.AvgRounds})
		predicted.Points = append(predicted.Points, Point{X: float64(n), Y: 3*h + m.AvgRouteHops})
		model.Points = append(model.Points, Point{X: float64(n), Y: wait + 2*depth + m.AvgRouteRingHops})
		ath.Points = append(ath.Points, Point{X: float64(n), Y: h})
	}
	fig.Series = []Series{measured, predicted, model, ath}
	fig.Notes = append(fig.Notes, "rounds model = wait + 2 × mean tree depth between processes + route hops between processes: only a hop between processes costs a round, while ATH counts every tree edge.")
	return fig
}

// ChurnPhases measures how long a burst of joins (and of leaves) takes to
// settle — Theorem 17 predicts O(log n) rounds per update phase.
func ChurnPhases(o Options) Figure {
	fig := Figure{
		ID: "churn", Title: "Rounds for a churn burst to fully settle (Thm. 17)",
		XLabel: "burst size (processes)", YLabel: "rounds to quiescence",
	}
	base := 32
	if len(o.Sizes) > 0 {
		base = o.Sizes[0]
	}
	joins := Series{Label: "joins"}
	leaves := Series{Label: "leaves"}
	churnClient := func(procs int, seed int64) *skueue.Client {
		c, err := skueue.Open(
			skueue.WithManualClock(),
			skueue.WithProcesses(procs),
			skueue.WithSeed(seed),
		)
		if err != nil {
			panic(err)
		}
		if err := c.Run(5); err != nil {
			panic(err)
		}
		return c
	}
	for _, burst := range []int{1, 2, 4, 8} {
		// Joins.
		c := churnClient(base, o.Seed+int64(burst))
		for i := 0; i < burst; i++ {
			if _, err := c.Admin().Join(i % base); err != nil {
				panic(err)
			}
		}
		start := c.Now()
		if ok, err := c.Settle(200000); err != nil || !ok {
			panic("harness: join burst did not settle")
		}
		joins.Points = append(joins.Points, Point{X: float64(burst), Y: float64(c.Now() - start)})

		// Leaves.
		c = churnClient(base+burst, o.Seed+100+int64(burst))
		for i := 0; i < burst; i++ {
			if err := c.Admin().Leave(1 + i); err != nil {
				panic(err)
			}
		}
		start = c.Now()
		if ok, err := c.Settle(200000); err != nil || !ok {
			panic("harness: leave burst did not settle")
		}
		leaves.Points = append(leaves.Points, Point{X: float64(burst), Y: float64(c.Now() - start)})
	}
	fig.Series = []Series{joins, leaves}
	fig.Notes = append(fig.Notes, fmt.Sprintf("Base system: %d processes; burst applied at once, measured to full quiescence.", base))
	return fig
}

// Baseline compares Skueue against the centralized server queue under a
// total load that grows with n (per-node probability workload): the server
// saturates at its capacity, Skueue keeps scaling (Cor. 16, §I).
func Baseline(o Options) Figure {
	const perNode = 0.05
	const capacity = 16
	fig := Figure{
		ID: "baseline", Title: fmt.Sprintf("Skueue vs centralized server (capacity %d req/round), load %.2f·n", capacity, perNode),
		XLabel: "n (processes)", YLabel: "avg rounds per request",
	}
	sk := Series{Label: "skueue"}
	srv := Series{Label: "central server"}
	for _, n := range o.Sizes {
		spec := workload.Spec{Rounds: o.Rounds, PerNodeProb: perNode, EnqRatio: 0.5}
		st, _, _ := runOne(skueue.Queue, n, spec, o.Seed+int64(n)*11, o.MaxDrain)
		sk.Points = append(sk.Points, Point{X: float64(n), Y: st.AvgRounds})

		bl := baseline.New(baseline.Config{Clients: 3 * n, Capacity: capacity, Seed: o.Seed + int64(n)})
		rng := newRng(o.Seed + int64(n)*13)
		for round := 0; round < o.Rounds; round++ {
			for c := 0; c < bl.Clients(); c++ {
				if rng.Bool(perNode) {
					if rng.Bool(0.5) {
						bl.Enqueue(c)
					} else {
						bl.Dequeue(c)
					}
				}
			}
			bl.Step()
		}
		if !bl.Drain(int64(o.Rounds) * 1000) {
			panic("harness: baseline did not drain")
		}
		srv.Points = append(srv.Points, Point{X: float64(n), Y: bl.AvgRounds()})
	}
	fig.Series = []Series{sk, srv}
	fig.Notes = append(fig.Notes, "Total load grows with n; the single server's backlog explodes past its capacity while Skueue stays logarithmic.")
	return fig
}

// All lists the experiment generators by id.
func All() map[string]func(Options) Figure {
	return map[string]func(Options) Figure{
		"fig2":      Figure2,
		"fig3":      Figure3,
		"fig4":      Figure4,
		"batchsize": BatchSizes,
		"fairness":  Fairness,
		"stages":    StageBreakdown,
		"churn":     ChurnPhases,
		"baseline":  Baseline,
	}
}

// IDs returns the experiment identifiers in stable order.
func IDs() []string {
	m := All()
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Render prints the figure as an aligned text table: one row per x value,
// one column per series.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s [%s]\n", f.Title, f.ID)
	for _, note := range f.Notes {
		fmt.Fprintf(&b, "# %s\n", note)
	}
	// Collect the x values in order of first appearance.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %14s", s.Label)
	}
	b.WriteString("\n")
	for _, x := range xs {
		fmt.Fprintf(&b, "%-12g", x)
		for _, s := range f.Series {
			y := math.NaN()
			for _, p := range s.Points {
				if p.X == x {
					y = p.Y
					break
				}
			}
			if math.IsNaN(y) {
				fmt.Fprintf(&b, " %14s", "-")
			} else {
				fmt.Fprintf(&b, " %14.2f", y)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders the figure as comma-separated values: a header row with the
// x label and series labels, then one row per x value. Missing points are
// empty cells.
func (f *Figure) CSV() string {
	var b strings.Builder
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		b.WriteString(",")
		b.WriteString(csvEscape(s.Label))
	}
	b.WriteString("\n")
	for _, x := range xs {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			b.WriteString(",")
			for _, p := range s.Points {
				if p.X == x {
					fmt.Fprintf(&b, "%g", p.Y)
					break
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
