package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// runRecord is one child run as the -json file keeps it.
type runRecord struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    int                `json:"trace"`
	Metrics  map[string]float64 `json:"metrics"`
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Header  map[string]any `json:"header"`
	Seconds float64        `json:"seconds"`
	Runs    []runRecord    `json:"runs"`
}

func headerLine(h map[string]any) string {
	return fmt.Sprintf("nproc=%v GOMAXPROCS=%v %v cpu=%q", h["nproc"], h["gomaxprocs"], h["go"], h["cpu"])
}

// runChild runs one workload in a fresh process — so that peak RSS,
// heap state and the listener's ports are its own — and returns the
// metrics of its result line.
func runChild(workload string, seed uint64, seconds float64, trace int, outDir string) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if !line.Correct || line.Failed != 0 {
		return nil, fmt.Errorf("%s: correct=%v failed=%d of %d", workload, line.Correct, line.Failed, line.Attempted)
	}
	metrics := make(map[string]float64, len(line.Metrics))
	for name, m := range line.Metrics {
		metrics[name] = m.Value
	}
	return metrics, nil
}

// runAll runs every workload untraced (runs times, on consecutive
// seeds) and then traced, prints every metric by name with its unit, and
// returns the process's exit code.
func runAll(seed uint64, seconds float64, runs int, outDir, jsonPath string) int {
	file := resultFile{Header: header(), Seconds: seconds}
	fmt.Println("#", headerLine(file.Header), fmt.Sprintf("seconds=%g seed=%d runs=%d", seconds, seed, runs))
	for _, wl := range workloads {
		fmt.Printf("\n== %s: %s\n", wl.Name, wl.Why)
		perMetric := map[string][]float64{}
		for r := 0; r < runs; r++ {
			m, err := runChild(wl.Name, seed+uint64(r), seconds, 0, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			file.Runs = append(file.Runs, runRecord{wl.Name, seed + uint64(r), 0, m})
			for name, v := range m {
				perMetric[name] = append(perMetric[name], v)
			}
		}
		fmt.Printf("%-30s %14s %-7s %s\n", "end-to-end metric", "median", "unit", "spread (IQR/median)")
		for _, spec := range endToEnd {
			vals := perMetric[spec.Name]
			spread := "-"
			if len(vals) >= 4 {
				spread = fmt.Sprintf("%.1f%%", 100*spreadShare(vals))
			}
			fmt.Printf("%-30s %14.4f %-7s %s\n", spec.Name, median(vals), spec.Unit, spread)
		}
		m, err := runChild(wl.Name, seed, seconds, 1, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		file.Runs = append(file.Runs, runRecord{wl.Name, seed, 1, m})
		fmt.Printf("%-30s %14s %s\n", "per-layer metric (traced run)", "value", "unit")
		for _, spec := range perLayer {
			fmt.Printf("%-30s %14.4f %s\n", spec.Name, m[spec.Name], spec.Unit)
		}
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			out = append(out, v)
		}
	}
	return out
}

// verdict judges a change's median against its parent's for one metric:
// "unresolved" when either side's run-to-run spread is wider than the
// metric's bound, "worse" or "better" when the median moved the wrong or
// the right way by more than the bound, and "within" otherwise. delta is
// (change-parent)/parent.
func verdict(spec metricSpec, parent, change []float64) (delta, spread float64, word string) {
	pm, cm := median(parent), median(change)
	delta = (cm - pm) / pm
	if len(parent) >= 4 {
		spread = spreadShare(parent)
	}
	if len(change) >= 4 {
		spread = max(spread, spreadShare(change))
	}
	gain := delta // how far the metric moved in its good direction
	if spec.Better == "lower" {
		gain = -delta
	}
	switch {
	case spread > spec.Bound:
		word = "unresolved"
	case gain < -spec.Bound:
		word = "worse"
	case gain > spec.Bound:
		word = "better"
	default:
		word = "within"
	}
	return delta, spread, word
}

// compareFiles prints one row per workload and end-to-end metric and
// returns 1 if any of them is worse, 2 if a file cannot be read.
func compareFiles(w io.Writer, parentPath, changePath string) int {
	parent, err := loadResults(parentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	change, err := loadResults(changePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(w, "# parent:", headerLine(parent.Header), fmt.Sprintf("seconds=%g", parent.Seconds))
	fmt.Fprintln(w, "# change:", headerLine(change.Header), fmt.Sprintf("seconds=%g", change.Seconds))
	fmt.Fprintf(w, "%-16s %-15s %12s %12s %-7s %16s %7s %6s  %s\n",
		"workload", "metric", "parent", "change", "unit", "delta (of parent)", "spread", "bound", "verdict")
	code := 0
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			p, c := parent.values(wl.Name, spec.Name), change.values(wl.Name, spec.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			delta, spread, word := verdict(spec, p, c)
			if word == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-15s %12.4f %12.4f %-7s %+15.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.Name, spec.Name, median(p), median(c), spec.Unit, 100*delta, 100*spread, 100*spec.Bound, word)
		}
	}
	return code
}
