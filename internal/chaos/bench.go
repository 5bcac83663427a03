package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// FaultSummary counts the faults a run actually executed, by kind.
type FaultSummary struct {
	Joins    int `json:"joins,omitempty"`
	Leaves   int `json:"leaves,omitempty"`
	Kills    int `json:"kills,omitempty"`
	Restarts int `json:"restarts,omitempty"`
}

// Point is one member-count measurement of a BENCH file: throughput and
// the latency tail, with enough context to reproduce the run.
type Point struct {
	Members int `json:"members"`
	// Ops is the number of completed operations the point measured.
	Ops     int `json:"ops"`
	Bottoms int `json:"bottoms"`
	// ElapsedSec is wall-clock run time; OpsPerSec is Ops/ElapsedSec.
	ElapsedSec float64 `json:"elapsed_sec"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	// LatencyUnit names the unit of the latency fields: "rounds" for
	// in-process simulator runs, "us" for multi-process runs.
	LatencyUnit string  `json:"latency_unit"`
	P50         int64   `json:"p50"`
	P99         int64   `json:"p99"`
	P999        int64   `json:"p999"`
	MaxLatency  int64   `json:"max_latency"`
	MeanLatency float64 `json:"mean_latency"`
	// AvgRounds is the protocol-level mean request latency in simulated
	// rounds (simulator runs only; mirrors the paper's Figures 2-3 axis).
	AvgRounds float64      `json:"avg_rounds,omitempty"`
	Faults    FaultSummary `json:"faults"`
}

// Bench is the machine-readable result of one chaos scenario, written as
// BENCH_<scenario>.json so the nightly workflow's artifacts form a perf
// trajectory across commits.
type Bench struct {
	Scenario  string `json:"scenario"`
	GitSHA    string `json:"git_sha"`
	Timestamp string `json:"timestamp"`
	Mode      string `json:"mode"`
	Seed      int64  `json:"seed"`
	// WAN describes the delivery profile of the run ("off" when unshaped).
	WAN string `json:"wan"`
	// Workload describes the request pattern in one line.
	Workload string  `json:"workload"`
	Points   []Point `json:"points"`
}

// AddPoint appends a measurement.
func (b *Bench) AddPoint(p Point) { b.Points = append(b.Points, p) }

// WriteFile writes the bench as dir/BENCH_<scenario>.json and returns the
// path. Scenario names are sanitized to keep the filename flat.
func (b *Bench) WriteFile(dir string) (string, error) {
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, b.Scenario)
	if name == "" {
		return "", fmt.Errorf("chaos: empty bench scenario name")
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Stamp fills the bench's provenance fields: the current git commit (or
// $GITHUB_SHA, or "unknown") and the current UTC time.
func (b *Bench) Stamp(repoDir string) {
	b.GitSHA = gitSHA(repoDir)
	b.Timestamp = time.Now().UTC().Format(time.RFC3339)
}

func gitSHA(dir string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = dir
	if out, err := cmd.Output(); err == nil {
		if sha := strings.TrimSpace(string(out)); sha != "" {
			return sha
		}
	}
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		if len(sha) > 12 {
			sha = sha[:12]
		}
		return sha
	}
	return "unknown"
}
