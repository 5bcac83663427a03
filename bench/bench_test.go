package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {40000, 99.9}, {100000, 99.99},
	} {
		if got := supportedPercentile(tc.n); got != tc.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 99.9: 100, 1: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if got, want := spreadShare(v), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spreadShare = %g, want %g", got, want)
	}
}

func TestWindowRates(t *testing.T) {
	// Bursts of 5 completions every 10 ms are 500/s wherever the window
	// edges fall; counting per window edge would give 500 ± one burst.
	var times []float64
	for burst := 0; burst < 400; burst++ {
		for k := 0; k < 5; k++ {
			times = append(times, 0.0031+float64(burst)*0.010)
		}
	}
	rates := windowRates(times, 0, 4, 0.5)
	if len(rates) != 7 { // the eighth window has no event after it to close it
		t.Fatalf("got %d window rates, want 7: %v", len(rates), rates)
	}
	for _, r := range rates {
		if math.Abs(r-500) > 1e-6 {
			t.Fatalf("window rate %g, want 500", r)
		}
	}

	// One stalled second must not move the median of the windows,
	// though it moves total/elapsed by a tenth.
	times = times[:0]
	for i := 0; i < 10000; i++ {
		if at := float64(i) * 0.001; at < 4 || at >= 5 {
			times = append(times, at)
		}
	}
	rates = windowRates(times, 0, 10, 0.5)
	if m := median(rates); math.Abs(m-1000) > 1e-6 {
		t.Fatalf("median window rate %g, want 1000 despite the stall", m)
	}
	if total := float64(len(times)) / 10; total > 950 {
		t.Fatalf("total/elapsed = %g: the stall should have shown there", total)
	}
}

// TestOpenLoopKeepsItsSchedule delays the generator by a sleep inside one
// send and checks that later operations keep their original due times —
// so the delay is counted in their latency — and that it is recorded as
// lateness.
func TestOpenLoopKeepsItsSchedule(t *testing.T) {
	const interval, length = 2 * time.Millisecond, 80 * time.Millisecond
	type sent struct {
		i         int
		due, late time.Duration
	}
	var log []sent
	start := time.Now()
	openLoop(start, interval, length, 1, 2, func(i int, due time.Duration) {
		log = append(log, sent{i, due, time.Since(start) - due})
		if i == 11 {
			time.Sleep(20 * time.Millisecond)
		}
	})
	if len(log) != 20 {
		t.Fatalf("sent %d operations, want the 20 odd slots of 40", len(log))
	}
	for k, s := range log {
		if s.i != 2*k+1 || s.due != time.Duration(s.i)*interval {
			t.Fatalf("operation %d: slot %d due %v, want slot %d due %v", k, s.i, s.due, 2*k+1, time.Duration(2*k+1)*interval)
		}
		if s.late < 0 {
			t.Fatalf("slot %d was sent %v before it was due", s.i, -s.late)
		}
	}
	// Slot 13 was due 4 ms after slot 11, whose send took 20 ms.
	if late := log[6].late; late < 14*time.Millisecond {
		t.Fatalf("slot 13 recorded %v of lateness, want about 16ms", late)
	}
	if late := log[3].late; late > 10*time.Millisecond {
		t.Fatalf("slot 7 ran %v late with nothing delaying it", late)
	}
}

func TestSubmitCountsLatencyFromDueTime(t *testing.T) {
	// stats takes latency as done-due and lateness as sub0-due.
	ph := &phaseLog{logs: []*opLog{{}}, from: 0, to: int64(2 * time.Second)}
	for i := 0; i < 2000; i++ {
		r := ph.logs[0].next()
		due := int64(i) * int64(time.Millisecond)
		*r = opRec{enq: i%2 == 0, due: due, sub0: due + 3e6, sub1: due + 3e6 + 5e3, done: due + 10e6}
	}
	st, err := ph.stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.latP50 != 10 || st.lateP99 != 3 || st.lateMax != 3 || st.submitP50 != 5 || st.waitP50 != 6995 {
		t.Fatalf("latency %g ms, late %g/%g ms, submit %g us, wait %g us; want 10, 3/3, 5, 6995",
			st.latP50, st.lateP99, st.lateMax, st.submitP50, st.waitP50)
	}
	if math.Abs(st.opsPerS-1000) > 1e-6 {
		t.Fatalf("rate %g, want 1000", st.opsPerS)
	}
}

// TestLatencyIsTheMedianOverWindows stalls one second of five: the
// stalled window's operations are slow, and neither reported percentile
// may move, though both percentiles of the whole sample would.
func TestLatencyIsTheMedianOverWindows(t *testing.T) {
	ph := &phaseLog{logs: []*opLog{{}}, from: 0, to: int64(5 * time.Second)}
	for i := 0; i < 5000; i++ {
		due := int64(i) * int64(time.Millisecond)
		lat := int64(10e6)
		if i%50 == 49 {
			lat = 20e6 // each window's own tail
		}
		if i >= 2000 && i < 3000 {
			lat = 500e6
		}
		*ph.logs[0].next() = opRec{due: due, sub0: due, sub1: due, done: due + lat}
	}
	st, err := ph.stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.latP50 != 10 || st.latP99 != 20 {
		t.Fatalf("p50 %g ms, p99 %g ms; want 10 and 20 whatever the stalled second did", st.latP50, st.latP99)
	}
}

func TestHistPercentile(t *testing.T) {
	// 100 samples at 7 and 100 at 8: the median is the boundary, 7.5,
	// and the quartiles sit in the middle of each value's own span.
	counts := []int64{7: 100, 8: 100}
	for p, want := range map[float64]float64{50: 7.5, 25: 7, 75: 8, 100: 8.5} {
		if got := histPercentile(counts, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
}

func TestLedgerCatchesEveryViolation(t *testing.T) {
	logOf := func(recs ...opRec) []*opLog {
		l := &opLog{}
		for _, r := range recs {
			*l.next() = r
		}
		return []*opLog{l}
	}
	for _, tc := range []struct {
		name string
		recs []opRec
		want string
	}{
		{"clean", []opRec{{enq: true, id: 4}, {valID: 4}, {bottom: true}}, ""},
		{"duplicate", []opRec{{enq: true, id: 4}, {valID: 4}, {valID: 4}}, "value 4 was dequeued twice"},
		{"invented", []opRec{{enq: true, id: 4}, {valID: 5}, {valID: 4}}, "value 5 was dequeued but never enqueued"},
		{"failed", []opRec{{enq: true, id: 4, fail: "indeterminate: gone"}}, "enqueue of value 4 failed: indeterminate: gone"},
	} {
		e := &netEnv{}
		e.book(logOf(tc.recs...))
		got := strings.Join(e.violations, "; ")
		if got != tc.want {
			t.Errorf("%s: violations %q, want %q", tc.name, got, tc.want)
		}
		if e.attempted != int64(len(tc.recs)) {
			t.Errorf("%s: attempted %d of %d", tc.name, e.attempted, len(tc.recs))
		}
	}
	// A value that never came out is only known once the queue drained.
	e := &netEnv{}
	e.book(logOf(opRec{enq: true, id: 7}, opRec{bottom: true}))
	if lost := e.lostValues(); len(lost) != 1 || lost[0] != 7 {
		t.Fatalf("lost values %v, want [7]", lost)
	}
}

func TestJobValueCarriesItsID(t *testing.T) {
	v := jobValue(3, 77)
	if len(v) != valueSize || !bytes.Equal(v, jobValue(3, 77)) || bytes.Equal(v, jobValue(4, 77)) || bytes.Equal(v[8:], jobValue(3, 78)[8:]) {
		t.Fatal("descriptors must be 128 bytes, repeat for a seed and id, and differ across seeds and ids")
	}
}

func TestSelfTimeSubtractsOverlappingChildren(t *testing.T) {
	tr := newTracer()
	root := tr.add("root", 0, 0, 0, 100)
	tr.add("kid", root, 1, 10, 30)
	tr.add("kid", root, 2, 20, 50)
	tr.add("kid", root, 3, 90, 120) // clipped to the parent
	totals := tr.selfTimes()
	if got := totals["root"].SelfMS * 1e6; math.Abs(got-50) > 1e-9 {
		t.Fatalf("root self time %g ns, want 100 - (40 + 10)", got)
	}
	if got := tr.coverage(root); got != 0.5 {
		t.Fatalf("coverage %g, want 0.5", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m, m, m * 1.01} }
	noisy := []float64{60, 80, 100, 120, 140}
	for _, tc := range []struct {
		spec           metricSpec
		parent, change []float64
		want           string
	}{
		{lower, steady(100), steady(120), "worse"},
		{lower, steady(100), steady(105), "within"},
		{lower, steady(100), steady(80), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(130), "better"},
		{higher, steady(100), noisy, "unresolved"},
		{lower, []float64{100}, []float64{120}, "worse"},
	} {
		if _, _, got := verdict(tc.spec, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.spec.Name, tc.parent, tc.change, got, tc.want)
		}
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json's workloads and metrics from spec.go")

// TestNamesMatchBenchmarkJSON keeps BENCHMARK.json and spec.go saying the
// same thing: every workload and metric the file names is one the code
// emits, with the same unit, direction and bound, and the reverse.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	var code []workloadSpec
	for _, wl := range workloads {
		code = append(code, workloadSpec{Name: wl.Name, Why: wl.Why})
	}
	if *update {
		file.Workloads, file.EndToEnd, file.PerLayer = code, endToEnd, perLayer
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) || !reflect.DeepEqual(file.Command, []string{"go", "run", "-C", "bench", "."}) {
		t.Errorf("command %v paths %v", file.Command, file.Paths)
	}
	if !reflect.DeepEqual(file.Workloads, code) {
		t.Errorf("workloads differ:\n file %+v\n code %+v", file.Workloads, code)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file %+v\n code %+v", file.PerLayer, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, wl := range workloads {
		check(wl.Name)
		if len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", wl.Name, len(wl.Why))
		}
	}
	hasSetup := false
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %+v is malformed", m)
		}
		hasSetup = hasSetup || (m == metricSpec{"setup_s", "s", "lower", m.Bound} && m.Bound > 0)
	}
	if !hasSetup {
		t.Error("setup_s must be an end-to-end metric in seconds, lower better")
	}
}

// TestSmoke runs every workload for one second, checks included; the
// run fails unless it measured exactly the metrics spec.go names.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		cfg := runConfig{workload: wl.Name, seed: 5, seconds: 1, setups: 1, outDir: t.TempDir()}
		line, err := runWorkload(&wl, cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1000 || len(line.Metrics) != len(endToEnd) {
			t.Fatalf("%s: %+v", wl.Name, line)
		}
		for name, m := range line.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %g, want a positive value", wl.Name, name, m.Value)
			}
		}
	}
}

// TestSmokeTraced makes one traced run with its probes and checks the
// trace file and the profiles it leaves.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the layer probes take several seconds")
	}
	wl := findWorkload("net3-open")
	cfg := runConfig{workload: wl.Name, seed: 5, seconds: 2, trace: true, setups: 1, outDir: t.TempDir()}
	line, err := runWorkload(wl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(line.Metrics), len(perLayer))
	}
	if cov := line.Metrics["trace.span_coverage_share"].Value; cov < 0.95 {
		t.Errorf("spans cover %.3f of the run, want at least 0.95", cov)
	}
	data, err := os.ReadFile(cfg.outDir + "/net3-open.trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Names []string              `json:"names"`
		Spans [][]int64             `json:"spans"`
		Self  map[string]nameTotals `json:"self_time"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	for _, want := range []string{"run", "setup.boot", "setup.dial", "warmup", "measure", "saturate", "drain", "check", "op", "client.submit", "client.wait"} {
		if trace.Self[want].Count == 0 {
			t.Errorf("no %q span in the trace", want)
		}
	}
	if len(trace.Spans) < 1000 {
		t.Errorf("only %d spans", len(trace.Spans))
	}
	for _, kind := range []string{"cpu", "mem", "mutex"} {
		if info, err := os.Stat(cfg.outDir + "/net3-open." + kind + ".pprof"); err != nil || info.Size() == 0 {
			t.Errorf("%s profile missing or empty: %v", kind, err)
		}
	}
}
