// Package svm implements the linear soft-margin SVM baseline the paper
// compares Fast kNN against (§5.2.1), trained with the Pegasos stochastic
// sub-gradient algorithm (Shalev-Shwartz et al.), plus the "SVM clustering"
// variant of §5.2.2 that resamples the training set so report pairs in small
// clusters are represented.
//
// Inputs are pair distance vectors; labels are +1 (duplicate) and -1. The
// decision value w·x + b ranks pairs for precision-recall evaluation.
package svm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"adrdedup/internal/kmeans"
	"adrdedup/internal/vecmath"
)

// Options configures training. The zero value uses the noted defaults.
type Options struct {
	// Lambda is the Pegasos regularization strength (default 1e-4).
	Lambda float64
	// Epochs is the number of passes over the data (default 20, enough
	// for Pegasos to converge on the pair-vector scale this library
	// works at — the baseline is given a fair fit).
	Epochs int
	// Seed drives example sampling.
	Seed int64
	// PositiveWeight scales the loss of positive examples; 1 leaves the
	// natural imbalance in place (the paper's SVM baseline does not
	// reweight, which is part of why it struggles). Default 1.
	PositiveWeight float64
}

func (o Options) withDefaults() Options {
	if o.Lambda <= 0 {
		o.Lambda = 1e-4
	}
	if o.Epochs <= 0 {
		o.Epochs = 20
	}
	if o.PositiveWeight <= 0 {
		o.PositiveWeight = 1
	}
	return o
}

// Model is a trained linear SVM.
type Model struct {
	// W and B define the decision function w·x + b on standardized
	// features.
	W []float64
	B float64

	mean []float64
	std  []float64
}

// Train fits a linear SVM with Pegasos. It returns an error on empty or
// single-class data (a hyperplane needs both classes).
func Train(data [][]float64, labels []int, opts Options) (*Model, error) {
	if len(data) == 0 {
		return nil, errors.New("svm: no training data")
	}
	if len(data) != len(labels) {
		return nil, fmt.Errorf("svm: %d vectors but %d labels", len(data), len(labels))
	}
	dim := len(data[0])
	pos, neg := 0, 0
	for i, v := range data {
		if len(v) != dim {
			return nil, fmt.Errorf("svm: vector %d has dim %d, want %d", i, len(v), dim)
		}
		switch labels[i] {
		case +1:
			pos++
		case -1:
			neg++
		default:
			return nil, fmt.Errorf("svm: label %d at %d, want +1 or -1", labels[i], i)
		}
	}
	if pos == 0 || neg == 0 {
		return nil, fmt.Errorf("svm: need both classes (pos=%d neg=%d)", pos, neg)
	}
	opts = opts.withDefaults()

	m := &Model{W: make([]float64, dim), mean: make([]float64, dim), std: make([]float64, dim)}
	m.fitScaler(data)

	// Pegasos on the augmented representation [x; 1] so the bias learns
	// with the weights.
	w := make([]float64, dim+1)
	rng := rand.New(rand.NewSource(opts.Seed))
	lambda := opts.Lambda
	t := 0
	x := make([]float64, dim+1)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		for iter := 0; iter < len(data); iter++ {
			t++
			i := rng.Intn(len(data))
			m.standardizeInto(data[i], x)
			x[dim] = 1
			y := float64(labels[i])
			weight := 1.0
			if labels[i] > 0 {
				weight = opts.PositiveWeight
			}
			eta := 1 / (lambda * float64(t))
			margin := y * vecmath.Dot(w, x)
			for d := range w {
				w[d] *= 1 - eta*lambda
			}
			if margin < 1 {
				for d := range w {
					w[d] += eta * weight * y * x[d]
				}
			}
			// Pegasos projection onto the 1/sqrt(lambda) ball.
			if norm := vecmath.Norm(w); norm > 1/math.Sqrt(lambda) {
				vecmath.Scale(w, 1/(norm*math.Sqrt(lambda)))
			}
		}
	}
	copy(m.W, w[:dim])
	m.B = w[dim]
	return m, nil
}

// Decision returns the signed distance proxy w·x + b for a raw (unscaled)
// vector; larger means more duplicate-like.
func (m *Model) Decision(v []float64) float64 {
	s := m.B
	for d, x := range v {
		s += m.W[d] * (x - m.mean[d]) / m.std[d]
	}
	return s
}

// DecisionBatch scores many vectors.
func (m *Model) DecisionBatch(vs [][]float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = m.Decision(v)
	}
	return out
}

func (m *Model) fitScaler(data [][]float64) {
	n := float64(len(data))
	for _, v := range data {
		vecmath.Add(m.mean, v)
	}
	vecmath.Scale(m.mean, 1/n)
	for _, v := range data {
		for d := range v {
			diff := v[d] - m.mean[d]
			m.std[d] += diff * diff
		}
	}
	for d := range m.std {
		m.std[d] = math.Sqrt(m.std[d] / n)
		if m.std[d] < 1e-9 {
			m.std[d] = 1
		}
	}
}

func (m *Model) standardizeInto(v, dst []float64) {
	for d := range v {
		dst[d] = (v[d] - m.mean[d]) / m.std[d]
	}
}

// TrainClustered is the "SVM clustering" baseline of §5.2.2: the training
// set is k-means clustered and resampled to half its size so that every
// cluster is represented — each cluster is guaranteed a floor quota (so
// report pairs in small clusters are included), with the remaining budget
// drawn proportionally to cluster size. The proportional draw preserves the
// overall (imbalanced) distribution, which is why the paper finds this
// variant does not significantly improve on plain SVM.
func TrainClustered(data [][]float64, labels []int, clusters int, opts Options) (*Model, error) {
	if clusters <= 0 {
		return nil, fmt.Errorf("svm: clusters = %d", clusters)
	}
	if len(data) == 0 {
		return nil, errors.New("svm: no training data")
	}
	res, err := kmeans.Run(data, clusters, kmeans.Options{Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("svm: clustering training data: %w", err)
	}
	k := len(res.Centers)
	budget := len(data) / 2
	if budget < k {
		budget = len(data)
	}
	floor := budget / (4 * k)
	if floor < 1 {
		floor = 1
	}
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	byCluster := make([][]int, k)
	for i, c := range res.Assign {
		byCluster[c] = append(byCluster[c], i)
	}
	var sampleData [][]float64
	var sampleLabels []int
	for _, members := range byCluster {
		quota := floor + len(members)*(budget-floor*k)/len(data)
		if quota >= len(members) {
			for _, i := range members {
				sampleData = append(sampleData, data[i])
				sampleLabels = append(sampleLabels, labels[i])
			}
			continue
		}
		perm := rng.Perm(len(members))[:quota]
		for _, p := range perm {
			sampleData = append(sampleData, data[members[p]])
			sampleLabels = append(sampleLabels, labels[members[p]])
		}
	}
	return Train(sampleData, sampleLabels, opts)
}
