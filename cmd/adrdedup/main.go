// Command adrdedup is the operational duplicate detection tool: it
// generates synthetic ADR corpora, summarizes report databases, and detects
// duplicates in new report batches against an existing database using the
// Fast kNN classifier.
//
// Usage:
//
//	adrdedup gen     -out reports.json -truth truth.json [-n 10382] [-dups 286] [-seed 1]
//	adrdedup summary -db reports.json
//	adrdedup detect  -db reports.json -batch batch.json -labels labels.json [-theta 0] [-top 20]
//	                 [-memory-mb 0]
//	                 [-workers N]
//	                 [-trace trace.json] [-metrics-out metrics.json]
//	                 [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// detect's -trace flag records a structured stage/task event log on the
// embedded cluster, exports it as JSON, and prints a per-stage virtual-time
// summary to stderr; -metrics-out dumps the final cluster counter snapshot.
// -memory-mb bounds each simulated executor's memory: blocks and shuffle
// buffers over the budget spill to a virtual local disk (visible as spill
// events in the trace) without changing any output.
// -workers sizes the engine's task pool, the number of stage tasks computing
// at once (default NumCPU) — results, committed counters and virtual times do
// not depend on it, only wall-clock does.
// -cpuprofile / -memprofile write runtime/pprof profiles of the whole detect
// run.
//
// File formats: reports and batches are JSON arrays of report objects (see
// internal/adr); labels are a JSON array of {"caseA", "caseB", "duplicate"}
// objects; truth is the generator's ground-truth duplicate list.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"adrdedup"
	"adrdedup/internal/adr"
	"adrdedup/internal/adrgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
	"adrdedup/internal/prof"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = runGen(os.Args[2:])
	case "summary":
		err = runSummary(os.Args[2:])
	case "detect":
		err = runDetect(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "adrdedup:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  adrdedup gen     -out reports.json -truth truth.json [-n 10382] [-dups 286] [-seed 1]
  adrdedup summary -db reports.json
  adrdedup detect  -db reports.json -batch batch.json -labels labels.json [-theta 0] [-top 20]
                   [-memory-mb 0]
                   [-workers N]
                   [-trace trace.json] [-metrics-out metrics.json]
                   [-cpuprofile cpu.pprof] [-memprofile mem.pprof]`)
}

// labelPair is the expert-label record the detect command consumes.
type labelPair struct {
	CaseA     string `json:"caseA"`
	CaseB     string `json:"caseB"`
	Duplicate bool   `json:"duplicate"`
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "reports.json", "output path for the report corpus")
	truthPath := fs.String("truth", "truth.json", "output path for ground-truth duplicate pairs")
	n := fs.Int("n", 10382, "number of reports (Table 3 default)")
	dups := fs.Int("dups", 286, "number of injected duplicate pairs")
	seed := fs.Int64("seed", 1, "generation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	corpus := adrgen.Generate(adrgen.Config{NumReports: *n, DuplicatePairs: *dups, Seed: *seed})
	if err := writeReports(*out, corpus.Reports); err != nil {
		return err
	}
	f, err := os.Create(*truthPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := adrgen.WriteGroundTruth(f, corpus.Duplicates); err != nil {
		return fmt.Errorf("writing %s: %w", *truthPath, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d reports to %s and %d duplicate pairs to %s\n",
		len(corpus.Reports), *out, len(corpus.Duplicates), *truthPath)
	return nil
}

func runSummary(args []string) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	dbPath := fs.String("db", "reports.json", "report database path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reports, err := readReports(*dbPath)
	if err != nil {
		return err
	}
	db := adr.NewDatabase()
	for _, r := range reports {
		r.ArrivalSeq = 0
		if err := db.Add(r); err != nil {
			return err
		}
	}
	s := db.Summarize()
	fmt.Printf("Report period:    %s\n", s.ReportPeriod)
	fmt.Printf("Cases:            %d\n", s.NumCases)
	fmt.Printf("Fields/report:    %d\n", s.NumFields)
	fmt.Printf("Unique drugs:     %d\n", s.UniqueDrugs)
	fmt.Printf("Unique ADRs:      %d\n", s.UniqueADRs)
	return nil
}

func runDetect(args []string) (retErr error) {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	dbPath := fs.String("db", "reports.json", "existing report database")
	batchPath := fs.String("batch", "batch.json", "new report batch to check")
	labelsPath := fs.String("labels", "labels.json", "expert-labelled pairs for training")
	theta := fs.Float64("theta", 0, "duplicate score threshold")
	k := fs.Int("k", 9, "neighbor count (odd)")
	b := fs.Int("b", 32, "training cluster number")
	top := fs.Int("top", 20, "matches to print")
	executors := fs.Int("executors", 8, "simulated executors")
	candidates := fs.String("candidates", "brute-force", "candidate strategy: brute-force or prefix-index")
	candTheta := fs.Float64("cand-theta", 0, "signature Jaccard threshold for prefix-index candidates (0 = default)")
	speculation := fs.Bool("speculation", false, "speculatively re-launch straggler tasks (first completion wins)")
	stragglerRate := fs.Float64("straggler-rate", 0, "deterministic straggler injection rate per task attempt")
	stragglerMS := fs.Float64("straggler-ms", 0, "virtual slowdown charged to each injected straggler (ms; 0 = default)")
	failExecutors := fs.Float64("fail-executors", 0, "deterministic executor-kill rate per executor at each stage's first submission (lost shuffle outputs and cached partitions are recomputed from lineage, and the output equals the kill-free run's)")
	memoryMB := fs.Int("memory-mb", 0, "per-executor memory budget in MB; blocks and shuffle buffers over budget spill to virtual disk (0 = unbounded default)")
	workers := fs.Int("workers", 0, "engine pool size: stage tasks computing at once (0 = NumCPU)")
	tracePath := fs.String("trace", "", "write a JSON stage/task trace event log to this file and print a per-stage summary to stderr")
	metricsPath := fs.String("metrics-out", "", "write the final cluster metrics snapshot as JSON to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a runtime/pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a runtime/pprof heap profile at the end of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	profile, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := profile.Stop(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	existing, err := readReports(*dbPath)
	if err != nil {
		return err
	}
	batch, err := readReports(*batchPath)
	if err != nil {
		return err
	}
	var labels []labelPair
	if err := readJSON(*labelsPath, &labels); err != nil {
		return err
	}

	var strategy adrdedup.CandidateStrategy
	switch *candidates {
	case "brute-force":
		strategy = adrdedup.CandidateBruteForce
	case "prefix-index":
		strategy = adrdedup.CandidatePrefixIndex
	default:
		return fmt.Errorf("unknown -candidates strategy %q (want brute-force or prefix-index)", *candidates)
	}
	det, err := adrdedup.New(adrdedup.Options{
		Cluster: cluster.Config{
			Executors:              *executors,
			Trace:                  *tracePath != "",
			Speculation:            *speculation,
			StragglerRate:          *stragglerRate,
			StragglerVirtualMS:     *stragglerMS,
			ExecutorFailureRate:    *failExecutors,
			MemoryPerExecutorBytes: int64(*memoryMB) << 20,
			SpillToDisk:            *memoryMB > 0,
			RealWorkers:            *workers,
		},
		Classifier:     core.Config{K: *k, B: *b, Theta: *theta},
		Candidates:     strategy,
		CandidateTheta: *candTheta,
	})
	if err != nil {
		return err
	}
	for i := range existing {
		existing[i].ArrivalSeq = 0
	}
	for i := range batch {
		batch[i].ArrivalSeq = 0
	}
	if err := det.AddKnownReports(existing); err != nil {
		return err
	}
	labelled := make([]adrdedup.LabeledCasePair, len(labels))
	for i, l := range labels {
		labelled[i] = adrdedup.LabeledCasePair{CaseA: l.CaseA, CaseB: l.CaseB, Duplicate: l.Duplicate}
	}
	if err := det.TrainFromLabeledCases(labelled); err != nil {
		return err
	}
	if issues := det.ValidateBatch(batch); len(issues) > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d of %d batch reports have validation issues\n",
			len(issues), len(batch))
	}
	matches, err := det.Detect(batch)
	if err != nil {
		return err
	}

	dups := adrdedup.Duplicates(matches)
	fmt.Printf("checked %d new reports against %d existing: %d candidate pairs scored, %d flagged duplicate\n",
		len(batch), len(existing), len(matches), len(dups))
	fmt.Printf("%-18s %-18s %12s %s\n", "case A", "case B", "score", "duplicate")
	for i, m := range matches {
		if i >= *top {
			break
		}
		flag := ""
		if m.Duplicate {
			flag = "yes"
		}
		fmt.Printf("%-18s %-18s %12.3f %s\n", m.CaseA, m.CaseB, m.Score, flag)
	}
	return writeObservability(det.Engine().Cluster(), *tracePath, *metricsPath)
}

// writeObservability exports the trace event log and metrics snapshot of a
// finished run, plus a human-readable per-stage summary on stderr when
// tracing was on.
func writeObservability(cl *cluster.Cluster, tracePath, metricsPath string) error {
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := cl.Tracer().WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", tracePath, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "\ntrace: %d events written to %s (%d dropped)\n",
			cl.Tracer().Len(), tracePath, cl.Tracer().Dropped())
		cluster.WriteStageSummary(os.Stderr, cl.StageHistory())
	}
	if metricsPath != "" {
		if err := writeJSON(metricsPath, cl.Metrics().Snapshot()); err != nil {
			return err
		}
	}
	return nil
}

func writeReports(path string, reports []adr.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := adr.WriteJSON(f, reports); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func readReports(path string) ([]adr.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reports, err := adr.ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return reports, nil
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func readJSON(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	return nil
}
