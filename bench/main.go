// Command bench is the repository's benchmark: five named workloads, an
// end-to-end gate and a per-layer ledger, all measured from outside the
// program through its public functions. README.md has the tables.
//
//	go run -C bench . -workload net3-pipe -seed 1 -seconds 10 -trace 0
//
// runs one workload in this process and prints, as the last line of its
// standard output, one JSON object {correct, attempted, failed, metrics}
// holding every end-to-end metric (-trace 0) or every per-layer metric
// (-trace 1). Without -workload it runs every workload, untraced and
// then traced, each in a fresh child process, and prints a table; with
// -compare a.json b.json it compares two result files written by -json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// runConfig is what one workload run is told.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	setups   int    // clusters an untraced networked run sets up and measures a share on; setup_s is their median
	outDir   string // trace file and profiles
	tmpDir   string // state directories of durable members
}

// result is what one workload run found.
type result struct {
	attempted int64
	e2e       map[string]float64 // untraced runs
	layer     map[string]float64 // traced runs
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the object the driver reads from the last line of stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in-process (default: all, each in a child process)")
		seed     = flag.Uint64("seed", 1, "drives value contents, operation order and process choice")
		seconds  = flag.Float64("seconds", 10, "length of the measured interval")
		trace    = flag.Int("trace", 0, "1: traced run (per-layer metrics, trace file, profiles); 0: end-to-end metrics")
		outDir   = flag.String("out", "out", "directory for trace files, profiles and temporary state")
		runs     = flag.Int("runs", 1, "all-workloads mode: untraced runs per workload, on consecutive seeds")
		jsonOut  = flag.String("json", "", "all-workloads mode: also write the runs to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two -json files given as arguments; exit 1 if any metric is worse")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare parent.json change.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *workload == "":
		os.Exit(runAll(*seed, *seconds, *runs, *outDir, *jsonOut))
	}
	wl := findWorkload(*workload)
	if wl == nil {
		fatal(2, "unknown workload %q", *workload)
	}
	if *seconds < 2 {
		fatal(2, "-seconds must be at least 2: each half of a traced run needs a whole latency window")
	}
	cfg := runConfig{workload: wl.Name, seed: *seed, seconds: *seconds, trace: *trace != 0, setups: 10, outDir: *outDir}
	line, err := runWorkload(wl, cfg)
	if err != nil {
		// The hard gate: a run that failed its checks prints no metrics.
		fatal(1, "%s seed %d: %v", wl.Name, cfg.seed, err)
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(out))
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// header identifies the machine a result came from.
func header() map[string]any {
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpuModel(),
	}
}

// runWorkload runs one workload in this process and shapes its result
// line. A traced run also runs the layer probes and writes the trace.
func runWorkload(wl *workloadSpec, cfg runConfig) (*resultLine, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmpDir = tmp

	tr := newTracer()
	root := tr.begin("run", 0)
	res, err := wl.run(cfg, tr, root)
	if err != nil {
		return nil, err
	}
	specs, values := endToEnd, res.e2e
	if cfg.trace {
		sp := tr.begin("probes", root)
		err := runProbes(cfg, tr, sp, res.layer)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		tr.end(root)
		res.layer["trace.span_coverage_share"] = tr.coverage(root)
		specs, values = perLayer, res.layer
		hdr := header()
		hdr["workload"], hdr["seed"], hdr["seconds"] = cfg.workload, cfg.seed, cfg.seconds
		if err := tr.write(filepath.Join(cfg.outDir, cfg.workload+".trace.json"), hdr, values); err != nil {
			return nil, err
		}
	}
	line := &resultLine{Correct: true, Attempted: res.attempted, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(values) != len(specs) {
		return nil, errors.New("the run measured a metric spec.go does not name")
	}
	return line, nil
}

// procDelta accumulates process-counter differences over one or more
// traced intervals and turns them into the proc.* metrics.
type procDelta struct {
	ops                int
	wall, cpu, sys     float64 // seconds
	gcCPU, mutexWait   float64 // seconds
	reads, writes      int64
	allocs, allocBytes uint64
}

func (d *procDelta) add(a, b procSample, ops int) {
	d.ops += ops
	d.wall += b.at.Sub(a.at).Seconds()
	d.cpu += (b.cpu() - a.cpu()).Seconds()
	d.sys += (b.sysCPU - a.sysCPU).Seconds()
	d.gcCPU += b.gcCPUSec - a.gcCPUSec
	d.mutexWait += b.mutexWaitS - a.mutexWaitS
	d.reads += b.readCalls - a.readCalls
	d.writes += b.writeCalls - a.writeCalls
	d.allocs += b.allocs - a.allocs
	d.allocBytes += b.allocBytes - a.allocBytes
}

func (d *procDelta) into(layer map[string]float64) {
	ops := float64(d.ops)
	layer["proc.cpu_us_per_op"] = d.cpu * 1e6 / ops
	layer["proc.read_syscalls_per_op"] = float64(d.reads) / ops
	layer["proc.write_syscalls_per_op"] = float64(d.writes) / ops
	layer["proc.sys_cpu_share"] = d.sys / d.cpu
	layer["proc.gc_cpu_share"] = d.gcCPU / d.cpu
	layer["proc.mutex_wait_us_per_op"] = d.mutexWait * 1e6 / ops
	layer["proc.allocs_per_op"] = float64(d.allocs) / ops
	layer["proc.alloc_bytes_per_op"] = float64(d.allocBytes) / ops
}

// netWorkload adapts a netSpec to the workload signature. An untraced
// run measures in several segments, each on a cluster set up for it, and
// reports the median set-up; a traced run makes an untraced and a traced
// pass of half the length each, on a cluster of its own, so that the
// tracing overhead is measured inside the one process.
func netWorkload(spec netSpec) func(runConfig, *tracer, uint32) (*result, error) {
	return func(cfg runConfig, tr *tracer, root uint32) (*result, error) {
		res := newResult()
		if !cfg.trace {
			// Every segment needs at least one whole latency window.
			segments := max(1, min(cfg.setups, int(cfg.seconds/latWindow)))
			p, err := runNetPass(spec, cfg, cfg.seconds, segments, false, tr, root)
			if err != nil {
				return nil, err
			}
			res.attempted = p.attempted
			st := p.stats
			res.e2e = map[string]float64{
				"setup_s":        median(p.setups),
				"ops_per_s":      st.opsPerS,
				"latency_p50_ms": st.latP50,
				"rounds_per_op":  st.ticksPerOp,
			}
			return res, nil
		}
		sp := tr.begin("untraced", root)
		ref, err := runNetPass(spec, cfg, cfg.seconds/2, 1, false, tr, sp)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("traced", root)
		p, err := runNetPass(spec, cfg, cfg.seconds/2, 1, true, tr, sp)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		res.attempted = ref.attempted + p.attempted
		st, ops := p.stats, float64(p.stats.ops)
		var d procDelta
		d.add(p.ph.proc0, p.ph.proc1, st.ops)
		d.into(res.layer)
		l := res.layer
		l["client.submit_us_p50"], l["client.submit_us_p99"], l["client.wait_us_p50"] = st.submitP50, st.submitP99, st.waitP50
		l["tcp.conn_reads_per_op"] = float64(p.ph.tcp1[0]-p.ph.tcp0[0]) / ops
		l["tcp.conn_writes_per_op"] = float64(p.ph.tcp1[1]-p.ph.tcp0[1]) / ops
		l["tcp.bytes_per_op"] = float64(p.ph.tcp1[2]-p.ph.tcp0[2]) / ops
		l["proc.peak_rss_mb"] = p.rssMB
		l["core.ticks_per_op"] = st.ticksPerOp
		l["gen.latency_p99_ms"] = st.latP99
		l["gen.late_ms_p99"], l["gen.late_ms_max"] = st.lateP99, st.lateMax
		l["gen.inflight_max"] = float64(p.inflightMax)
		l["seqcheck.check_ms_per_kop"] = p.checkMS / (float64(p.attempted) / 1000)
		l["gen.sat_ops_per_s"], l["proc.sat_cpu_us_per_op"] = p.satOpsPerS, p.satCPUPerOpUS
		// The offered rate is fixed, so the overhead shows in latency.
		l["trace.overhead_share"] = st.latP50/ref.stats.latP50 - 1
		return res, nil
	}
}
