package experiments

import (
	"os"
	"strings"
	"testing"
)

// goldenExhibits are the exhibits whose every count, ratio, percentage, AUPR
// and text cell repeats at a seed, at any pool size.
var goldenExhibits = []string{"table1", "table2", "table3", "fig6", "fig7", "fig8", "loadbalance", "speculation", "recovery"}

// TestExhibitGolden runs the golden exhibits as `experiments -quick` does at
// seed 1, at pool sizes 1 and 3, and compares the tables with
// testdata/exhibits-quick-seed1.golden. Clock-derived cells print as their
// kind's placeholder; every other cell must match exactly.
func TestExhibitGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/exhibits-quick-seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		cfg := DefaultCluster()
		cfg.RealWorkers = workers
		env, err := NewEnv(cfg, SmallCorpus(1), 1)
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for _, name := range goldenExhibits {
			exhibits, err := Select(name, 1, true, 1, workers)
			if err != nil {
				t.Fatal(err)
			}
			tables, err := exhibits[0].Run(env)
			if err != nil {
				t.Fatal(err)
			}
			if err := write(&got, name, true, tables, true); err != nil {
				t.Fatal(err)
			}
		}
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gotLines), len(wantLines)) {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Errorf("workers=%d: line %d differs from the golden file:\n got: %q\nwant: %q", workers, i+1, g, w)
				break
			}
		}
	}
}

// TestRunnerScaling: -scale multiplies a pair count, and -quick takes a tenth
// of it first.
func TestRunnerScaling(t *testing.T) {
	s := &sizing{scale: 2}
	if got := s.n(1000); got != 2000 {
		t.Errorf("n(1000) at scale 2 = %d", got)
	}
	s = &sizing{scale: 1, quick: true}
	if got := s.n(1000); got != 100 {
		t.Errorf("quick n(1000) = %d", got)
	}
	if s.err != nil {
		t.Errorf("sizes of at least one reported %v", s.err)
	}
	if s.n(5); s.err == nil {
		t.Error("quick n(5) scales to 0 but reported no error")
	}
}
