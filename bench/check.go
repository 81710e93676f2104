package main

import (
	"fmt"
	"sort"
	"strings"

	"adrdedup"
	"adrdedup/internal/adr"
	"adrdedup/internal/serve"
)

// served is what the system under test returned over a whole load phase.
type served struct {
	reports    []adr.Report // every report of a request answered 2xx, in request order
	scored     int
	duplicates map[pairKey]bool
}

func collectServed(in *inputs, res *loadResult) served {
	s := served{duplicates: make(map[pairKey]bool)}
	ok := append([]outcome(nil), res.outcomes...)
	sort.Slice(ok, func(i, j int) bool { return ok[i].index < ok[j].index })
	for _, o := range ok {
		if !o.ok {
			continue
		}
		s.reports = append(s.reports, in.requests[o.index].reports...)
		s.scored += o.resp.Scored
		addPairs(s.duplicates, o.resp.Matches)
	}
	return s
}

func addPairs(dst map[pairKey]bool, matches []wireMatch) {
	for _, m := range matches {
		dst[makePair(m.CaseA, m.CaseB)] = true
	}
}

// checkAgainstReplay replays the served reports through a fresh in-process
// detector and compares what came back over the wire with it. The set of
// candidate pairs and their classification depend only on which reports were
// ingested, not on how they were batched or interleaved, so the replay feeds
// them in one Detect call: that pays the per-call index build once instead of
// once per request. candgen's Verified/Scanned counters differ run to run on
// multi-core hosts and are deliberately not compared.
func checkAgainstReplay(w workload, s served) error {
	if len(s.reports) == 0 {
		return fmt.Errorf("no request succeeded, nothing to check")
	}
	boot, err := serve.NewBootstrap(w.bootstrapConfig())
	if err != nil {
		return fmt.Errorf("reference bootstrap: %w", err)
	}
	defer boot.Detector.Engine().Cluster().Close()
	matches, err := boot.Detector.Detect(s.reports)
	if err != nil {
		return fmt.Errorf("reference replay: %w", err)
	}
	if len(matches) != s.scored {
		return fmt.Errorf("scored pairs: served %d, sequential replay %d", s.scored, len(matches))
	}
	want := make(map[pairKey]bool)
	for _, m := range adrdedup.Duplicates(matches) {
		want[makePair(m.CaseA, m.CaseB)] = true
	}
	return diffPairs(s.duplicates, want)
}

// diffPairs reports the first few pairs present in only one of the sets.
func diffPairs(got, want map[pairKey]bool) error {
	var diffs []string
	for p := range got {
		if !want[p] {
			diffs = append(diffs, fmt.Sprintf("+%s/%s", p[0], p[1]))
		}
	}
	for p := range want {
		if !got[p] {
			diffs = append(diffs, fmt.Sprintf("-%s/%s", p[0], p[1]))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	n := len(diffs)
	if n > 6 {
		diffs = diffs[:6]
	}
	return fmt.Errorf("duplicate pairs differ from the sequential replay in %d places (served %d, replay %d): %s",
		n, len(got), len(want), strings.Join(diffs, " "))
}

// quality scores the served duplicate flags against the injected ground
// truth. Recall is over injected pairs whose two reports were both served;
// precision over flagged pairs that lie wholly inside the traffic.
func quality(in *inputs, s served) (recall, precision float64) {
	sent := make(map[string]bool, len(s.reports))
	for _, r := range s.reports {
		sent[r.CaseNumber] = true
	}
	var injected, found, flagged int
	for p := range in.truth {
		if sent[p[0]] && sent[p[1]] {
			injected++
			if s.duplicates[p] {
				found++
			}
		}
	}
	for p := range s.duplicates {
		if sent[p[0]] && sent[p[1]] {
			flagged++
		}
	}
	if injected > 0 {
		recall = float64(found) / float64(injected)
	}
	if flagged > 0 {
		precision = float64(found) / float64(flagged)
	}
	return recall, precision
}
