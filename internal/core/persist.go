package core

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"adrdedup/internal/knn"
	"adrdedup/internal/rdd"
)

// modelVersion guards the on-disk format.
const modelVersion = 1

// modelFile is the serialized form of a trained classifier. Negative blocks
// are stored per cluster so Load can rebuild the cluster-resident RDD
// without re-running k-means.
type modelFile struct {
	Version      int
	Config       Config
	Dim          int
	Centers      [][]float64
	NegBlocks    [][]ipair
	Positives    []ipair
	PruneCenters [][]float64
	PruneRadii   []float64
}

// Save serializes the trained classifier (partitioning, negative blocks,
// positives, pruning state) with encoding/gob. The engine context is not
// part of the model; Load binds the model to a new context.
func (c *Classifier) Save(w io.Writer) error {
	mf := modelFile{
		Version:      modelVersion,
		Config:       c.cfg,
		Dim:          c.dim,
		Centers:      c.centers,
		NegBlocks:    make([][]ipair, len(c.negSizes)),
		Positives:    groupPairs(c.positives, c.dim),
		PruneCenters: c.pruneCenters,
		PruneRadii:   c.pruneRadii,
	}
	blocks, err := c.negBlocks.Collect()
	if err != nil {
		return fmt.Errorf("core: collecting negative blocks: %w", err)
	}
	for _, kv := range blocks {
		mf.NegBlocks[kv.Key] = groupPairs(kv.Value, c.dim)
	}
	if err := gob.NewEncoder(w).Encode(mf); err != nil {
		return fmt.Errorf("core: encoding model: %w", err)
	}
	return nil
}

// Load reconstructs a classifier previously written by Save, binding it to
// the given engine context. The loaded model classifies identically to the
// saved one.
func Load(ctx *rdd.Context, r io.Reader) (*Classifier, error) {
	var mf modelFile
	if err := gob.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if mf.Version != modelVersion {
		return nil, fmt.Errorf("core: model version %d, want %d", mf.Version, modelVersion)
	}
	if len(mf.Centers) == 0 || mf.Dim <= 0 || len(mf.NegBlocks) != len(mf.Centers) {
		return nil, fmt.Errorf("core: corrupt model (dim=%d, centers=%d, blocks=%d)", mf.Dim, len(mf.Centers), len(mf.NegBlocks))
	}
	c := &Classifier{
		ctx:          ctx,
		cfg:          mf.Config,
		dim:          mf.Dim,
		centers:      mf.Centers,
		pruneCenters: mf.PruneCenters,
		pruneRadii:   mf.PruneRadii,
	}
	// install rejects a file whose vectors are not all Dim wide or whose
	// labels disagree with the block they sit in, and fails when the engine
	// cannot cache the negative blocks.
	if err := c.install(mf.NegBlocks, mf.Positives, "T-neg.blocks(loaded)"); err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	return c, nil
}

// groupPairs is the saved form of a grouped block: its members back in
// training order, the order Train handed them to the grouping, so that Load
// regroups them identically. The vectors alias the arenas.
func groupPairs(g knn.Groups, dim int) []ipair {
	out := make([]ipair, 0, g.Len())
	for _, b := range g.Blocks {
		for i, id := range b.IDs {
			out = append(out, ipair{Idx: id, Vec: b.Row(i, dim), Label: b.Label})
		}
	}
	slices.SortFunc(out, func(a, b ipair) int { return cmp.Compare(a.Idx, b.Idx) })
	return out
}
