package serve

import (
	"sort"

	"adrdedup"
)

// Test-only API: declared in a _test.go file so that only this package's
// tests can reach it.

// SortMatches sorts matches the way Detect orders one batch — descending
// score, ties by (CaseA, CaseB) — so match sets merged across incremental
// batches compare deterministically against a one-shot run.
func SortMatches(matches []adrdedup.Match) {
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Score != matches[j].Score {
			return matches[i].Score > matches[j].Score
		}
		if matches[i].CaseA != matches[j].CaseA {
			return matches[i].CaseA < matches[j].CaseA
		}
		return matches[i].CaseB < matches[j].CaseB
	})
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Detector exposes the wrapped detector. The caller must not call detection
// methods on it while the server runs.
func (s *Server) Detector() *adrdedup.Detector { return s.det }
