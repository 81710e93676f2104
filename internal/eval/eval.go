// Package eval computes precision-recall curves and the area under them
// (AUPR), the paper's classification quality metric (§5.2.2, citing Davis &
// Goadrich for PR analysis on highly imbalanced data).
package eval

import (
	"errors"
	"fmt"
	"sort"
)

// Point is one precision-recall operating point at a score threshold.
type Point struct {
	Threshold float64
	Recall    float64
	Precision float64
}

// ErrNoPositives is returned when the labels contain no positive examples,
// for which recall is undefined.
var ErrNoPositives = errors.New("eval: no positive labels")

// PRCurve sweeps the decision threshold over the scores (descending) and
// returns the precision-recall points. Tied scores are processed as one
// group so the curve is threshold-consistent. Labels are +1/-1.
func PRCurve(scores []float64, labels []int) ([]Point, error) {
	if len(scores) != len(labels) {
		return nil, fmt.Errorf("eval: %d scores but %d labels", len(scores), len(labels))
	}
	totalPos := 0
	for _, l := range labels {
		if l > 0 {
			totalPos++
		}
	}
	if totalPos == 0 {
		return nil, ErrNoPositives
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })

	var points []Point
	tp, fp := 0, 0
	i := 0
	for i < len(idx) {
		j := i
		threshold := scores[idx[i]]
		for j < len(idx) && scores[idx[j]] == threshold {
			if labels[idx[j]] > 0 {
				tp++
			} else {
				fp++
			}
			j++
		}
		points = append(points, Point{
			Threshold: threshold,
			Recall:    float64(tp) / float64(totalPos),
			Precision: float64(tp) / float64(tp+fp),
		})
		i = j
	}
	return points, nil
}

// AUPR returns the area under the precision-recall curve, computed as
// average precision (the step-wise integral that Davis & Goadrich recommend
// over trapezoidal interpolation in PR space).
func AUPR(scores []float64, labels []int) (float64, error) {
	if len(scores) != len(labels) {
		return 0, fmt.Errorf("eval: %d scores but %d labels", len(scores), len(labels))
	}
	totalPos := 0
	for _, l := range labels {
		if l > 0 {
			totalPos++
		}
	}
	if totalPos == 0 {
		return 0, ErrNoPositives
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })

	var ap float64
	tp, fp := 0, 0
	i := 0
	for i < len(idx) {
		j := i
		threshold := scores[idx[i]]
		groupPos := 0
		for j < len(idx) && scores[idx[j]] == threshold {
			if labels[idx[j]] > 0 {
				tp++
				groupPos++
			} else {
				fp++
			}
			j++
		}
		if groupPos > 0 {
			precision := float64(tp) / float64(tp+fp)
			ap += precision * float64(groupPos)
		}
		i = j
	}
	return ap / float64(totalPos), nil
}
