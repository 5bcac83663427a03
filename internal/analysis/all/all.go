// Package all registers every skueue-lint analyzer: the cmd/skueue-lint
// driver and the repo self-test both run this list, so a new analyzer
// added here is picked up by both.
package all

import (
	"skueue/internal/analysis"
	"skueue/internal/analysis/futureerr"
	"skueue/internal/analysis/guardedby"
	"skueue/internal/analysis/lockorder"
	"skueue/internal/analysis/releaseorder"
	"skueue/internal/analysis/runnerblock"
	"skueue/internal/analysis/statecomplete"
)

// Analyzers is the full suite, in reporting-name order.
var Analyzers = []*analysis.Analyzer{
	futureerr.Analyzer,
	guardedby.Analyzer,
	lockorder.Analyzer,
	releaseorder.Analyzer,
	runnerblock.Analyzer,
	statecomplete.Analyzer,
}
