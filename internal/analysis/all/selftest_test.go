package all_test

import (
	"go/types"
	"path/filepath"
	"testing"

	"skueue/internal/analysis"
	"skueue/internal/analysis/all"
)

// TestRepoIsClean runs the full analyzer suite over this repository —
// the same check `go run ./cmd/skueue-lint ./...` and the CI
// lint-invariants job perform. A failure here means a change violated
// one of the enforced invariants: fix the code, or the analyzer if the
// finding is false.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the full module from source")
	}
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run(prog, all.Analyzers)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d invariant finding(s); fix them, or fix the analyzer, or use the rule's own marker (see internal/analysis/doc.go)", len(diags))
	}

	// Guard the guard: each analyzer keys on annotations in the
	// production tree; if those vanish (a refactor drops a marker
	// comment), the analyzer passes vacuously. The golden suites prove
	// detection works; this proves the production anchors exist.
	anchors := map[string]int{}
	prog.Ann.Funcs("runner", func(*types.Func, analysis.Annotation) { anchors["runner roots"]++ })
	prog.Ann.Funcs("client-release", func(*types.Func, analysis.Annotation) { anchors["client-release funcs"]++ })
	prog.Ann.Types("client-outcome", func(*types.TypeName, analysis.Annotation) { anchors["client-outcome types"]++ })
	prog.Ann.Types("future", func(*types.TypeName, analysis.Annotation) { anchors["future types"]++ })
	prog.Ann.Fields("lock", func(*types.Var, analysis.Annotation) { anchors["ranked locks"]++ })
	prog.Ann.Types("snapshot-state", func(*types.TypeName, analysis.Annotation) { anchors["snapshot-state types"]++ })
	prog.Ann.Funcs("snapshot-capture", func(*types.Func, analysis.Annotation) { anchors["snapshot-capture funcs"]++ })
	prog.Ann.Funcs("snapshot-restore", func(*types.Func, analysis.Annotation) { anchors["snapshot-restore funcs"]++ })
	prog.Ann.Fields("ephemeral", func(*types.Var, analysis.Annotation) { anchors["ephemeral fields"]++ })
	prog.Ann.Fields("guarded-by", func(*types.Var, analysis.Annotation) { anchors["guarded-by fields"]++ })
	prog.Ann.Funcs("owned-by", func(*types.Func, analysis.Annotation) { anchors["owned-by funcs"]++ })
	prog.Ann.Funcs("locked", func(*types.Func, analysis.Annotation) { anchors["locked helpers"]++ })
	for _, anchor := range []string{
		"runner roots", "client-release funcs", "client-outcome types", "future types", "ranked locks",
		"snapshot-state types", "snapshot-capture funcs", "snapshot-restore funcs",
		"ephemeral fields", "guarded-by fields", "owned-by funcs", "locked helpers",
	} {
		if anchors[anchor] == 0 {
			t.Errorf("no %s annotated anywhere in the tree; the corresponding analyzer is running vacuously", anchor)
		}
	}
}
