package core

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestNodeIsModeFree pins the discipline seam: mode-specific behavior
// goes through the discipline interface. No non-test file of this package
// but discipline.go (the seam and its one dispatch switch) names a mode
// constant, and the wave engine in node.go does not read the configured
// mode either. The other half of the seam needs no test: newDiscipline
// returns a discipline, so the compiler checks every strategy implements
// it.
func TestNodeIsModeFree(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	modeConst := regexp.MustCompile(`batch\.(Queue|Stack|Heap)\b`)
	modeRead := regexp.MustCompile(`cfg\.Mode`)
	sawNode := false
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "discipline.go" {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		sawNode = sawNode || name == "node.go"
		for i, line := range strings.Split(string(src), "\n") {
			matches := modeConst.FindAllString(line, -1)
			if name == "node.go" {
				matches = append(matches, modeRead.FindAllString(line, -1)...)
			}
			for _, m := range matches {
				t.Errorf("%s:%d mentions %q; mode-specific behavior belongs in a discipline implementation (discipline.go)", name, i+1, m)
			}
		}
	}
	if !sawNode {
		t.Fatal("node.go not scanned; the test is not looking at the wave engine")
	}
}
