package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownOnlyListsValidNames: a typo in -only must fail fast (exit 2)
// and name every valid analyzer, so the caller can fix the invocation
// without reading the source.
func TestUnknownOnlyListsValidNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-only", "nosuch,guardedby"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `"nosuch"`) {
		t.Errorf("stderr does not name the unknown analyzer: %s", msg)
	}
	for _, name := range []string{"guardedby", "statecomplete", "lockorder", "runnerblock"} {
		if !strings.Contains(msg, name) {
			t.Errorf("stderr does not list valid analyzer %q: %s", name, msg)
		}
	}
}

// TestListExitsZero guards the -list path (no load, no findings).
func TestListExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "statecomplete") {
		t.Errorf("-list output missing an analyzer:\n%s", stdout.String())
	}
}

// TestJSONFindings runs the guardedby analyzer over its own golden
// fixture (a package full of intentional violations) and checks the
// -json output carries machine-readable findings with repo-relative
// paths. A clean package must yield an empty array, not null.
func TestJSONFindings(t *testing.T) {
	fixture := "../../internal/analysis/guardedby/testdata/src/guarded"
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "-only", "guardedby", fixture}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (fixture has intentional findings); stderr: %s", code, stderr.String())
	}
	var findings []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(findings) == 0 {
		t.Fatal("no findings decoded from a fixture full of violations")
	}
	for _, f := range findings {
		if f.Analyzer != "guardedby" {
			t.Errorf("finding from analyzer %q leaked through -only guardedby", f.Analyzer)
		}
		if filepath.IsAbs(f.File) {
			t.Errorf("finding path %q is absolute, want repo-relative", f.File)
		}
		if f.Line <= 0 || f.Column <= 0 {
			t.Errorf("finding at %s has no position: line %d col %d", f.File, f.Line, f.Column)
		}
		if f.Message == "" {
			t.Errorf("finding at %s:%d has an empty message", f.File, f.Line)
		}
	}

	// Clean package: an empty array, exit 0.
	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-json", "-only", "guardedby", "../../internal/xrand"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("clean package exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean package output = %q, want []", got)
	}
}
