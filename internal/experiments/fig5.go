package experiments

import (
	"fmt"

	"adrdedup/internal/core"
	"adrdedup/internal/eval"
	"adrdedup/internal/svm"
)

// Fig5Params configures the classifier comparison (paper Fig. 5: kNN vs SVM
// vs SVM clustering across training set sizes).
type Fig5Params struct {
	// TrainSizes are the training pair counts to sweep (paper: 1M-5M;
	// default 100k-500k).
	TrainSizes []int
	// TestSize is the test pair count (paper: 20,000).
	TestSize int
	Seed     int64
}

// fig5SVMClusters is the cluster count of the SVM-clustering variant (paper:
// 8).
const fig5SVMClusters = 8

func (p Fig5Params) withDefaults() Fig5Params {
	if len(p.TrainSizes) == 0 {
		p.TrainSizes = []int{100_000, 200_000, 300_000, 400_000, 500_000}
	}
	if p.TestSize <= 0 {
		p.TestSize = 20_000
	}
	return p
}

// Fig5Point is one training-size measurement (Fig. 5(c) bar group).
type Fig5Point struct {
	TrainPairs        int
	AUPRKNN           float64
	AUPRSVM           float64
	AUPRSVMClustering float64
}

// Fig5Result aggregates the comparison: AUPR bars per training size plus
// full PR curves at the largest and smallest sizes (Fig. 5(a) and (b)).
type Fig5Result struct {
	Points       []Fig5Point
	CurveLargest map[string][]eval.Point // keyed "kNN" / "SVM"
	CurveSmall   map[string][]eval.Point
	// ImprovementOverSVM is the mean relative AUPR gain of kNN over SVM
	// (paper: 19.1% average).
	ImprovementOverSVM float64
}

// Fig5 runs the classifier comparison.
func Fig5(env *Env, p Fig5Params) (*Fig5Result, error) {
	p = p.withDefaults()
	res := &Fig5Result{}
	var gain, gainN float64
	for i, size := range p.TrainSizes {
		data, err := env.BuildPairData(size, p.TestSize, exhibitHardFraction, p.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		knnScores, err := knnScores(env, data, core.Config{K: exhibitK, B: exhibitB, C: exhibitC, Seed: p.Seed})
		if err != nil {
			return nil, err
		}
		vecs, labels := SVMLabels(data.Train)
		svmModel, err := svm.Train(vecs, labels, svm.Options{Seed: p.Seed})
		if err != nil {
			return nil, fmt.Errorf("fig5: training SVM on %d pairs: %w", size, err)
		}
		svmScores := svmModel.DecisionBatch(data.TestVecs)
		clModel, err := svm.TrainClustered(vecs, labels, fig5SVMClusters, svm.Options{Seed: p.Seed})
		if err != nil {
			return nil, fmt.Errorf("fig5: training SVM clustering: %w", err)
		}
		clScores := clModel.DecisionBatch(data.TestVecs)

		point := Fig5Point{TrainPairs: size}
		if point.AUPRKNN, err = eval.AUPR(knnScores, data.TestLabels); err != nil {
			return nil, err
		}
		if point.AUPRSVM, err = eval.AUPR(svmScores, data.TestLabels); err != nil {
			return nil, err
		}
		if point.AUPRSVMClustering, err = eval.AUPR(clScores, data.TestLabels); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, point)
		if point.AUPRSVM > 0 {
			gain += (point.AUPRKNN - point.AUPRSVM) / point.AUPRSVM
			gainN++
		}

		first := i == 0
		last := i == len(p.TrainSizes)-1
		if first || last {
			curves := make(map[string][]eval.Point, 2)
			if curves["kNN"], err = eval.PRCurve(knnScores, data.TestLabels); err != nil {
				return nil, err
			}
			if curves["SVM"], err = eval.PRCurve(svmScores, data.TestLabels); err != nil {
				return nil, err
			}
			if first {
				res.CurveSmall = curves
			}
			if last {
				res.CurveLargest = curves
			}
		}
	}
	if gainN > 0 {
		res.ImprovementOverSVM = gain / gainN
	}
	return res, nil
}

// knnScores trains Fast kNN and returns the Eq. 5 scores over the test set,
// ordered by test index.
func knnScores(env *Env, data *PairData, cfg core.Config) ([]float64, error) {
	clf, err := core.Train(env.Ctx, data.Train, cfg)
	if err != nil {
		return nil, fmt.Errorf("training Fast kNN: %w", err)
	}
	results, _, err := clf.Classify(data.TestVecs)
	if err != nil {
		return nil, fmt.Errorf("classifying with Fast kNN: %w", err)
	}
	scores := make([]float64, len(results))
	for _, r := range results {
		scores[r.ID] = r.Score
	}
	return scores, nil
}
