package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// benchSpec is the part of BENCHMARK.json that compare needs: each end-to-end
// metric's direction and the share by which it may worsen.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
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

// quartiles returns the three cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), which is how the driver measures spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, q2)
}

// series collects one metric's values per workload from a result file, and
// whether every run behind them was comparable.
type series struct {
	values     map[string]map[string][]float64 // workload -> metric -> values
	comparable map[string]bool
	order      []string
}

func seriesOf(f *resultFile) series {
	s := series{values: map[string]map[string][]float64{}, comparable: map[string]bool{}}
	for _, r := range f.Results {
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
			s.comparable[r.Workload] = true
			s.order = append(s.order, r.Workload)
		}
		if !r.Comparable {
			s.comparable[r.Workload] = false
		}
		for name, m := range r.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
		}
	}
	return s
}

// printSpread prints, for a file with several runs per workload, each
// metric's median and its interquartile spread as a share of the median.
func printSpread(f *resultFile) {
	s := seriesOf(f)
	fmt.Printf("\n%-14s %-36s %4s %14s %10s\n", "workload", "metric", "n", "median", "IQR/median")
	for _, w := range s.order {
		names := make([]string, 0, len(s.values[w]))
		for n := range s.values[w] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := s.values[w][n]
			_, q2, _ := quartiles(v)
			fmt.Printf("%-14s %-36s %4d %14.4f %9.2f%%\n", w, n, len(v), q2, 100*spread(v))
		}
	}
}

// minSpreadRuns is the number of runs per side from which compare trusts a
// measured spread; below it only the medians are compared.
const minSpreadRuns = 4

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge decides one workload x metric cell. worse is B's median relative to
// A's in the bad direction. A cell is unresolved when a run behind it was not
// comparable, or when A's own spread exceeds the bound and the two sides'
// readings overlap.
func judge(a, b []float64, lowerIsBetter bool, bound float64, comparable bool) (worse float64, v verdict) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worse = ratio(mb-ma, ma)
	if !lowerIsBetter {
		worse = -worse
	}
	if !comparable {
		return worse, verdictUnresolved
	}
	if len(a) >= minSpreadRuns && len(b) >= minSpreadRuns && spread(a) > bound {
		sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
		sort.Float64s(sa)
		sort.Float64s(sb)
		bAllBetter := sb[len(sb)-1] < sa[0]
		bAllWorse := sb[0] > sa[len(sa)-1]
		if !lowerIsBetter {
			bAllBetter, bAllWorse = sb[0] > sa[len(sa)-1], sb[len(sb)-1] < sa[0]
		}
		switch {
		case bAllBetter:
			return worse, verdictOK
		case bAllWorse && worse > bound:
			return worse, verdictRegressed
		default:
			return worse, verdictUnresolved
		}
	}
	if worse > bound {
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

// exitError carries a process exit status other than 1.
type exitError struct {
	code int
	msg  string
}

func (e *exitError) Error() string { return e.msg }

// compare prints one row per workload x end-to-end metric and returns an
// error when any cell regressed (exit 1) or, failing that, is unresolved
// (exit 2).
func compare(spec *benchSpec, fa, fb *resultFile) error {
	a, b := seriesOf(fa), seriesOf(fb)
	sameHost := fa.Meta.NProc == fb.Meta.NProc && fa.Meta.Seconds == fb.Meta.Seconds
	if !sameHost {
		fmt.Printf("note: A ran on %d cores for %gs, B on %d cores for %gs: nothing is comparable\n",
			fa.Meta.NProc, fa.Meta.Seconds, fb.Meta.NProc, fb.Meta.Seconds)
	}
	fmt.Printf("%-14s %-18s %14s %14s %16s %7s  %s\n", "workload", "metric", "A (base)", "B", "B/A", "bound", "verdict")
	counts := map[verdict]int{}
	for _, w := range a.order {
		if b.values[w] == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := a.values[w][m.Name], b.values[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, v := judge(va, vb, m.Better == "lower", m.Bound, sameHost && a.comparable[w] && b.comparable[w])
			counts[v]++
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Printf("%-14s %-18s %14.4f %14.4f %9.4f of A %+6.1f%%  %s (worse by %+.1f%%, %s)\n",
				w, m.Name, ma, mb, ratio(mb, ma), 100*m.Bound, v, 100*worse, m.Unit)
		}
	}
	fmt.Printf("%d ok, %d regressed, %d unresolved\n", counts[verdictOK], counts[verdictRegressed], counts[verdictUnresolved])
	switch {
	case counts[verdictRegressed] > 0:
		return &exitError{1, fmt.Sprintf("%d metric x workload cells regressed", counts[verdictRegressed])}
	case counts[verdictUnresolved] > 0:
		return &exitError{2, fmt.Sprintf("%d metric x workload cells unresolved", counts[verdictUnresolved])}
	case counts[verdictOK] == 0:
		return errors.New("the two files share no workload")
	}
	return nil
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: compare A.json B.json")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	fa, err := loadResults(args[0])
	if err != nil {
		return err
	}
	fb, err := loadResults(args[1])
	if err != nil {
		return err
	}
	return compare(spec, fa, fb)
}

// selfcheckMain runs the whole benchmark twice on the same code and seed and
// applies compare to the two sets: the bounds are only usable if the
// benchmark agrees with itself within them.
func selfcheckMain(args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds per phase")
	reps := fs.Int("reps", 1, "repetitions per workload and set")
	quick := fs.Bool("quick", false, "smoke run at one tenth size; every cell then reads unresolved")
	if err := fs.Parse(args); err != nil {
		return err
	}
	e, err := newEnv()
	if err != nil {
		return err
	}
	spec, err := loadSpec(e.root)
	if err != nil {
		return err
	}
	opts := runOpts{window: time.Duration(*seconds * float64(time.Second)), quick: *quick}
	e.meta.Seed, e.meta.Seconds, e.meta.Quick = *seed, *seconds, *quick
	var sets [2]*resultFile
	for i := range sets {
		if sets[i], err = runSet(e, workloads, *seed, *reps, opts); err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(e.outDir, fmt.Sprintf("selfcheck_%c.json", 'A'+i)), sets[i]); err != nil {
			return err
		}
	}
	fmt.Println()
	return compare(spec, sets[0], sets[1])
}
