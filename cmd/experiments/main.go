// Command experiments regenerates the tables and figures of Wang & Karimi
// (EDBT 2016) on the synthetic TGA-profile corpus:
//
//	experiments [flags] <exhibit|all>
//
// prints the tables of one exhibit of the internal/experiments registry, or
// of every exhibit in registry order. Pair counts default to one tenth of the
// paper's; -scale multiplies them back up (-scale 10 is paper scale). A
// -scale that is not positive, or that shrinks a size below one, is a usage
// error (exit 2).
//
// -workers sizes the engine's task pool (default NumCPU). Counts, ratios,
// percentages, AUPRs, text and virtual times do not depend on it: a virtual
// time is the work the tasks counted, priced by the engine's cost constants,
// plus simulated I/O, so it repeats at a seed on any host. Wall times, and
// ratios of them, move between runs. Each time column's header names its
// clock, virtual or wall.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"adrdedup/internal/cluster"
	"adrdedup/internal/experiments"
	"adrdedup/internal/prof"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command; it returns the exit status, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1, "multiplier on pair-set sizes (10 = paper scale)")
	seed := fs.Int64("seed", 1, "corpus and sampling seed")
	quick := fs.Bool("quick", false, "reduced corpus and pair counts for smoke runs")
	tracePath := fs.String("trace", "", "write a JSON stage/task trace event log to this file and print a per-stage summary to stderr")
	metricsPath := fs.String("metrics-out", "", "write the final cluster metrics snapshot as JSON to this file")
	workers := fs.Int("workers", 0, "engine pool size: stage tasks computing at once (0 = NumCPU)")
	cpuProfile := fs.String("cpuprofile", "", "write a runtime/pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a runtime/pprof heap profile at the end of the run to this file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: experiments [flags] <exhibit>")
		fmt.Fprintln(stderr, "exhibits:", strings.Join(experiments.Names(), " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	exhibits, err := experiments.Select(fs.Arg(0), *scale, *quick, *seed, *workers)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		fs.Usage()
		return 2
	}

	profile, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	var env *experiments.Env
	runErr := func() error {
		for _, ex := range exhibits {
			if ex.NeedsEnv && env == nil {
				corpus := experiments.DefaultCorpus(*seed)
				if *quick {
					corpus = experiments.SmallCorpus(*seed)
				}
				cfg := experiments.DefaultCluster()
				cfg.Trace = *tracePath != ""
				cfg.RealWorkers = *workers
				start := time.Now()
				if env, err = experiments.NewEnv(cfg, corpus, *seed); err != nil {
					return err
				}
				fmt.Fprintln(stdout, "corpus:", len(env.Corpus.Reports), "reports,", len(env.Corpus.Duplicates),
					"duplicate pairs, prepared in", time.Since(start).Round(time.Millisecond))
				fmt.Fprintln(stdout)
			}
			tables, err := ex.Run(env)
			if err != nil {
				return err
			}
			if err := experiments.Write(stdout, ex.Name, len(exhibits) > 1, tables); err != nil {
				return err
			}
		}
		return nil
	}()
	// Export observability artifacts even after a failed exhibit: a trace
	// of the failing run is exactly what's needed to debug it.
	artErr := writeArtifacts(env, *tracePath, *metricsPath, stderr)
	profErr := profile.Stop()
	status := 0
	for _, e := range []error{artErr, profErr, runErr} {
		if e != nil {
			fmt.Fprintln(stderr, "experiments:", e)
			status = 1
		}
	}
	return status
}

// writeArtifacts exports the trace event log (spanning every engine reset of
// the run) and the final cluster's metrics snapshot, if requested.
func writeArtifacts(env *experiments.Env, tracePath, metricsPath string, stderr io.Writer) error {
	if env == nil {
		return nil
	}
	cl := env.Ctx.Cluster()
	if tracePath != "" {
		var trace bytes.Buffer
		if err := cl.Tracer().WriteJSON(&trace); err != nil {
			return err
		}
		if err := os.WriteFile(tracePath, trace.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stderr)
		fmt.Fprintln(stderr, "trace:", cl.Tracer().Len(), "events written to", tracePath+",", cl.Tracer().Dropped(), "dropped")
		fmt.Fprintln(stderr, "per-stage summary (current engine, most recent 512 stages):")
		cluster.WriteStageSummary(stderr, cl.StageHistory())
	}
	if metricsPath == "" {
		return nil
	}
	metrics, err := json.MarshalIndent(cl.Metrics().Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(metricsPath, append(metrics, '\n'), 0o644)
}
