// Command skueue-lint runs the repo's invariant analyzers (package
// skueue/internal/analysis) over the module and exits non-zero if any
// invariant is violated.
//
// Usage:
//
//	go run ./cmd/skueue-lint [-list] [-only name,name] [-json] [packages]
//
// Packages default to ./... relative to the current directory. There is
// no generic suppression: a false finding is fixed in the analyzer, and
// each rule's own marker (internal/analysis/doc.go) covers the code it
// exempts.
//
// With -json, findings are written to stdout as a JSON array of
// {analyzer, file, line, column, message} objects (an empty array when
// clean), so CI can post them as annotations without scraping text.
//
// The standalone driver replaces the usual `go vet -vettool` entry
// point, which requires golang.org/x/tools' unitchecker; this build is
// self-contained so the suite works in offline environments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"skueue/internal/analysis"
	"skueue/internal/analysis/all"
)

// moduleRoot walks up from dir to the directory holding go.mod; dir
// itself if no module is found (paths then stay absolute).
func moduleRoot(dir string) string {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir
		}
		d = parent
	}
}

// jsonFinding is the -json wire shape of one diagnostic.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so tests can drive the
// flag handling and output formats in-process. The return value is the
// process exit code: 0 clean, 1 findings, 2 usage or load failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("skueue-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default all)")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range all.Analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := all.Analyzers
	if *only != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		analyzers = nil
		for _, a := range all.Analyzers {
			if want[a.Name] {
				analyzers = append(analyzers, a)
				delete(want, a.Name)
			}
		}
		if len(want) > 0 {
			unknown := make([]string, 0, len(want))
			for name := range want {
				unknown = append(unknown, fmt.Sprintf("%q", name))
			}
			sort.Strings(unknown)
			valid := make([]string, 0, len(all.Analyzers))
			for _, a := range all.Analyzers {
				valid = append(valid, a.Name)
			}
			fmt.Fprintf(stderr, "skueue-lint: unknown analyzer %s (valid: %s)\n",
				strings.Join(unknown, ", "), strings.Join(valid, ", "))
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "skueue-lint:", err)
		return 2
	}
	prog, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "skueue-lint:", err)
		return 2
	}
	diags := analysis.Run(prog, analyzers)
	if *asJSON {
		root := moduleRoot(cwd)
		findings := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			// Report paths relative to the module root so CI can map
			// findings onto the checkout without knowing our absolute
			// workspace root.
			file := d.Pos.Filename
			if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
			findings = append(findings, jsonFinding{
				Analyzer: d.Analyzer,
				File:     file,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "skueue-lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "skueue-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
