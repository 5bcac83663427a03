package harness

import (
	"strings"
	"testing"
)

// tiny returns minimal options so every experiment runs in milliseconds.
func tiny() Options {
	return Options{
		Seed:        3,
		Sizes:       []int{8, 16},
		Ratios:      []float64{0, 0.5, 1.0},
		Probs:       []float64{0.1, 0.5},
		Rounds:      40,
		ReqPerRound: 3,
		Fig4N:       8,
		MaxDrain:    60000,
	}
}

func checkFigure(t *testing.T, f Figure, wantSeries int) {
	t.Helper()
	if len(f.Series) != wantSeries {
		t.Fatalf("%s: %d series, want %d", f.ID, len(f.Series), wantSeries)
	}
	for _, s := range f.Series {
		if len(s.Points) == 0 {
			t.Fatalf("%s: series %q empty", f.ID, s.Label)
		}
		for _, p := range s.Points {
			if p.Y < 0 {
				t.Fatalf("%s: negative measurement %v", f.ID, p)
			}
		}
	}
	out := f.Render()
	if !strings.Contains(out, f.ID) {
		t.Fatalf("render misses id: %s", out)
	}
}

func TestFigure2Shape(t *testing.T) {
	f := Figure2(tiny())
	checkFigure(t, f, 3)
	// Latency grows with n for every ratio (log growth, but monotone over
	// a doubling).
	for _, s := range f.Series {
		if s.Points[len(s.Points)-1].Y <= 0 {
			t.Fatalf("zero latency in %q", s.Label)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	checkFigure(t, Figure3(tiny()), 3)
}

func TestFigure4Shape(t *testing.T) {
	f := Figure4(tiny())
	checkFigure(t, f, 2)
	// At high rates the stack must not be slower than at low rates by much
	// — local combining absorbs load. Just require both series present and
	// positive; the shape assertions live in EXPERIMENTS.md regeneration.
}

func TestBatchSizesShape(t *testing.T) {
	f := BatchSizes(tiny())
	checkFigure(t, f, 2)
	// Stack batches stay <= 3 runs at any size (Theorem 20).
	for _, s := range f.Series {
		if s.Label != "stack" {
			continue
		}
		for _, p := range s.Points {
			if p.Y > 3 {
				t.Fatalf("stack batch size %v exceeds 3 runs", p.Y)
			}
		}
	}
}

func TestFairnessShape(t *testing.T) {
	checkFigure(t, Fairness(tiny()), 2)
}

func TestStageBreakdownShape(t *testing.T) {
	f := StageBreakdown(tiny())
	checkFigure(t, f, 4)
	// The rounds model is what the code implements: it reads the measured
	// average to within a round and a half, where 3·ATH + route is several
	// times it.
	measured, model := f.Series[0].Points, f.Series[2].Points
	for i, p := range measured {
		if d := p.Y - model[i].Y; d < -1.5 || d > 1.5 {
			t.Errorf("n=%v: measured %.2f rounds, rounds model %.2f", p.X, p.Y, model[i].Y)
		}
	}
}

func TestChurnPhasesShape(t *testing.T) {
	checkFigure(t, ChurnPhases(tiny()), 2)
}

func TestBaselineShape(t *testing.T) {
	f := Baseline(tiny())
	checkFigure(t, f, 2)
}

func TestAllAndIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != len(All()) || len(ids) != 8 {
		t.Fatalf("expected 8 experiments, got %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("ids not sorted: %v", ids)
		}
	}
}

func TestRenderAlignment(t *testing.T) {
	f := Figure{
		ID: "x", Title: "T", XLabel: "n",
		Series: []Series{
			{Label: "a", Points: []Point{{1, 2}, {2, 3}}},
			{Label: "b", Points: []Point{{1, 4}}},
		},
	}
	out := f.Render()
	if !strings.Contains(out, "-") {
		t.Fatalf("missing value should render as -: %s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected header + 3 lines, got %d: %s", len(lines), out)
	}
}

func TestCSVOutput(t *testing.T) {
	f := Figure{
		ID: "x", XLabel: "n",
		Series: []Series{
			{Label: "a,b", Points: []Point{{1, 2.5}, {2, 3}}},
			{Label: "c", Points: []Point{{1, 4}}},
		},
	}
	out := f.CSV()
	want := "n,\"a,b\",c\n1,2.5,4\n2,3,\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
}
