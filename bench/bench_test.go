package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// The library workload execs this binary in sut-batch mode; under go test
// "this binary" is the test binary, so it has to answer to that too.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "sut-batch" {
		if err := sutBatchMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "sut-batch:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkJSON is every key the contract allows in BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	benchSpec
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONListsTheWorkloadsInCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	var names []string
	for _, m := range b.EndToEnd {
		names = append(names, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if fmt.Sprint(names) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end is %v, code prints %v", names, endToEnd)
	}
}

// TestQuickRunEveryWorkload drives the whole path at one tenth size: build
// the daemon, generate inputs, exec the child, load it, check its outputs
// against the sequential replay, and in traced mode replay with the shadow
// pipeline. It also pins the metric names and units to BENCHMARK.json.
func TestQuickRunEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs adrdedupd")
	}
	b := readBenchmarkJSON(t)
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	e.outDir = t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				res, err := runWorkload(e, w.quick(), 3, runOpts{window: time.Second, trace: traced, quick: true})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if res.Comparable {
					t.Error("a quick run is marked comparable")
				}
				want := map[string]string{}
				if traced {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
					if _, err := os.Stat(filepath.Join(e.outDir, "trace_"+w.Name+".json")); err != nil {
						t.Errorf("span file: %v", err)
					}
				} else {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s of BENCHMARK.json was not reported", name)
					case got.Unit != unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s is %v", name, got.Value)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, want above zero", name, got.Value)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is reported but missing from BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{100, 140, 70, 120, 85}
	cases := []struct {
		name          string
		a, b          []float64
		lowerIsBetter bool
		comparable    bool
		want          verdict
	}{
		{"same", steady, steady, true, true, verdictOK},
		{"latency up 20%", steady, []float64{120, 121, 119, 120, 122}, true, true, verdictRegressed},
		{"latency down", steady, []float64{80, 81, 79}, true, true, verdictOK},
		{"throughput down 20%", steady, []float64{80}, false, true, verdictRegressed},
		{"throughput up", steady, []float64{130}, false, true, verdictOK},
		{"within bound", steady, []float64{105}, true, true, verdictOK},
		{"quick run", steady, steady, true, false, verdictUnresolved},
		{"noisy base, overlapping", noisy, []float64{110, 130, 90, 100, 95}, true, true, verdictUnresolved},
		{"noisy base, every run better", noisy, []float64{50, 55, 60, 52, 58}, true, true, verdictOK},
		{"noisy base, every run worse", noisy, []float64{150, 155, 160, 152, 158}, true, true, verdictRegressed},
	}
	for _, c := range cases {
		if _, got := judge(c.a, c.b, c.lowerIsBetter, 0.10, c.comparable); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildrenOfTheSameRequest(t *testing.T) {
	spans := []span{
		{Name: "request", ID: 1, StartNS: 0, EndNS: 100},
		{Name: "serve.decode", ID: 1, Parent: "request", StartNS: 0, EndNS: 10},
		{Name: "detector.detect", ID: 1, Parent: "request", StartNS: 10, EndNS: 90},
		{Name: "candgen.pairs", ID: 1, Parent: "probe", StartNS: 100, EndNS: 160},
		{Name: "request", ID: 2, StartNS: 200, EndNS: 250},
		{Name: "detector.detect", ID: 2, Parent: "request", StartNS: 205, EndNS: 245},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"request": 10 + 10, "serve.decode": 10, "detector.detect": 80 + 40, "candgen.pairs": 60}
	var names []string
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if self[n] != want[n] {
			t.Errorf("self time of %s = %v, want %v", n, self[n], want[n])
		}
	}
}

func TestGenerateInputsIsDeterministicAndKeepsPairsTogether(t *testing.T) {
	w, _ := findWorkload("serve_open")
	a, err := generateInputs(w, 5, 240)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateInputs(w, 5, 240)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.requests {
		if string(a.requests[i].body) != string(b.requests[i].body) {
			t.Fatalf("request %d differs between two generations from one seed", i)
		}
	}
	c, err := generateInputs(w, 6, 240)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.requests[0].body) == string(c.requests[0].body) {
		t.Error("seeds 5 and 6 gave the same first request")
	}
	// 240 requests of 5 reports are 1200 reports: two whole chunks of 500
	// and part of a third, so at least 10 injected pairs lie wholly inside.
	sent := map[string]bool{}
	for _, rq := range a.requests {
		for _, r := range rq.reports {
			if sent[r.CaseNumber] {
				t.Fatalf("case number %s generated twice", r.CaseNumber)
			}
			sent[r.CaseNumber] = true
		}
	}
	whole := 0
	for p := range a.truth {
		if sent[p[0]] && sent[p[1]] {
			whole++
		}
	}
	if whole < 10 {
		t.Errorf("%d injected pairs lie wholly inside 1200 reports, want at least 10", whole)
	}
}
