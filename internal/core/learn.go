package core

import (
	"errors"
	"fmt"
	"math"

	"adrdedup/internal/kmeans"
	"adrdedup/internal/vecmath"
)

// LearnPruningThreshold implements the future work the paper sketches in
// §5.2.6: choose f(θ) from labelled data instead of fixing it by hand.
//
// The training positives are clustered into l groups (exactly as Classify's
// pruning step will do). For every *validation* positive pair, the slack it
// needs to survive pruning is its distance to the nearest cluster center
// minus that cluster's radius. The learned f(θ) is the maximum required
// slack across validation positives, inflated by safety (a fraction, e.g.
// 0.1 for 10% headroom), normalized to the space diameter as PruningConfig
// expects. Using held-out positives rather than the training ones is what
// makes the bound meaningful: training positives are inside their own
// clusters by construction.
//
// The returned PruningConfig keeps every validation positive by
// construction; the safety margin covers unseen duplicates.
func LearnPruningThreshold(train, validation []TrainingPair, l int, safety float64) (*PruningConfig, error) {
	if l <= 0 {
		return nil, fmt.Errorf("core: cluster count l = %d", l)
	}
	if safety < 0 {
		return nil, fmt.Errorf("core: negative safety margin %v", safety)
	}
	var posVecs [][]float64
	for _, p := range train {
		if p.Label > 0 {
			posVecs = append(posVecs, p.Vec)
		}
	}
	if len(posVecs) == 0 {
		return nil, errors.New("core: no positive training pairs to learn from")
	}
	var valPos [][]float64
	for _, p := range validation {
		if p.Label > 0 {
			valPos = append(valPos, p.Vec)
		}
	}
	if len(valPos) == 0 {
		return nil, errors.New("core: no positive validation pairs to learn from")
	}
	dim := len(posVecs[0])

	res, err := kmeans.Run(posVecs, l, kmeans.Options{Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("core: clustering positives: %w", err)
	}
	radii := kmeans.Radii(posVecs, res)

	required := 0.0
	for _, v := range valPos {
		// Slack needed for this positive: distance beyond the closest
		// cluster ball.
		best := math.Inf(1)
		for ci, center := range res.Centers {
			if need := vecmath.Dist(v, center) - radii[ci]; need < best {
				best = need
			}
		}
		if best > required {
			required = best
		}
	}
	if required < 0 {
		required = 0
	}
	// Safety headroom: proportional to the required slack, but never below
	// a share of the mean cluster radius — when every validation positive
	// already sits inside a ball, required is 0 and a purely
	// multiplicative margin would degenerate to f(θ) = 0, pruning every
	// unseen duplicate that lands just outside a ball.
	var meanRadius float64
	for _, r := range radii {
		meanRadius += r
	}
	meanRadius /= float64(len(radii))
	slack := required*(1+safety) + safety*meanRadius
	ftheta := slack / math.Sqrt(float64(dim))
	if ftheta > 1 {
		ftheta = 1
	}
	return &PruningConfig{Clusters: l, FTheta: ftheta}, nil
}
