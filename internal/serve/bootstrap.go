package serve

import (
	"fmt"
	"time"

	"adrdedup"
	"adrdedup/internal/adrgen"
	"adrdedup/internal/pairdist"
)

// BootstrapConfig describes a self-contained service bootstrap: a synthetic
// seed database plus a classifier trained on pairs sampled from its ground
// truth. Zero values take defaults sized for a responsive single-machine
// daemon.
type BootstrapConfig struct {
	// SeedReports is the initial database size (default 2000) and
	// SeedDuplicates the injected ground-truth duplicate pairs in it
	// (default 80) — the labelled positives the classifier trains on.
	SeedReports    int
	SeedDuplicates int
	// TrainPairs is the labelled training-set size (default 1200);
	// HardFraction the share of confusable negatives in it (default 0.5).
	TrainPairs   int
	HardFraction float64
	// Seed drives corpus generation and pair sampling; the whole
	// bootstrap is deterministic in it.
	Seed int64
	// Detector configures the wrapped pipeline.
	Detector adrdedup.Options
}

func (c BootstrapConfig) withDefaults() BootstrapConfig {
	if c.SeedReports <= 0 {
		c.SeedReports = 2000
	}
	if c.SeedDuplicates <= 0 {
		c.SeedDuplicates = 80
	}
	if 2*c.SeedDuplicates > c.SeedReports {
		c.SeedDuplicates = c.SeedReports / 2
	}
	if c.TrainPairs <= 0 {
		c.TrainPairs = 1200
	}
	if c.TrainPairs < c.SeedDuplicates {
		c.TrainPairs = 2 * c.SeedDuplicates
	}
	if c.HardFraction <= 0 || c.HardFraction > 1 {
		c.HardFraction = 0.5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Bootstrap is a ready-to-serve detector plus the corpus it was seeded
// with.
type Bootstrap struct {
	Detector *adrdedup.Detector
	Corpus   *adrgen.Corpus
	Config   BootstrapConfig
	// SeedDuration and TrainDuration record how long database seeding
	// (feature extraction included) and classifier training took.
	SeedDuration  time.Duration
	TrainDuration time.Duration
}

// NewBootstrap generates the seed corpus, loads it into a fresh detector,
// and trains the classifier on sampled labelled pairs. Deterministic in
// cfg.Seed.
func NewBootstrap(cfg BootstrapConfig) (*Bootstrap, error) {
	cfg = cfg.withDefaults()
	det, err := adrdedup.New(cfg.Detector)
	if err != nil {
		return nil, fmt.Errorf("serve: creating detector: %w", err)
	}
	corpus := adrgen.Generate(adrgen.Config{
		NumReports:     cfg.SeedReports,
		DuplicatePairs: cfg.SeedDuplicates,
		Seed:           cfg.Seed,
	})

	seedStart := time.Now()
	if err := det.AddKnownReports(corpus.Reports); err != nil {
		det.Engine().Cluster().Close()
		return nil, fmt.Errorf("serve: seeding database: %w", err)
	}
	seedDur := time.Since(seedStart)

	labelled, err := corpus.SamplePairs(adrgen.PairSampleOptions{
		Total:        cfg.TrainPairs,
		HardFraction: cfg.HardFraction,
		Seed:         cfg.Seed + 1,
	})
	if err != nil {
		det.Engine().Cluster().Close()
		return nil, fmt.Errorf("serve: sampling training pairs: %w", err)
	}
	ids := make([]pairdist.IDPair, len(labelled))
	for i, p := range labelled {
		ids[i] = pairdist.IDPair{A: p.A, B: p.B, Label: p.Label}
	}
	trainStart := time.Now()
	if err := det.TrainFromIDPairs(ids); err != nil {
		det.Engine().Cluster().Close()
		return nil, fmt.Errorf("serve: training classifier: %w", err)
	}

	return &Bootstrap{
		Detector:      det,
		Corpus:        corpus,
		Config:        cfg,
		SeedDuration:  seedDur,
		TrainDuration: time.Since(trainStart),
	}, nil
}
