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
	// trainSizes are the training pair counts to sweep (paper: 1M-5M).
	trainSizes []int
	// testSize is the test pair count (paper: 20,000).
	testSize int
	seed     int64
}

// fig5SVMClusters is the cluster count of the SVM-clustering variant (paper:
// 8).
const fig5SVMClusters = 8

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
	res := &Fig5Result{}
	var gain, gainN float64
	for i, size := range p.trainSizes {
		data, err := env.BuildPairData(size, p.testSize, exhibitHardFraction, p.seed+int64(i))
		if err != nil {
			return nil, err
		}
		results, _, err := classify(env, data, core.Config{K: exhibitK, B: exhibitB, C: exhibitC, Seed: p.seed})
		if err != nil {
			return nil, err
		}
		knnScores := scores(results)
		vecs, labels := SVMLabels(data.Train)
		svmModel, err := svm.Train(vecs, labels, svm.Options{Seed: p.seed})
		if err != nil {
			return nil, fmt.Errorf("fig5: training SVM on %d pairs: %w", size, err)
		}
		svmScores := svmModel.DecisionBatch(data.TestVecs)
		clModel, err := svm.TrainClustered(vecs, labels, fig5SVMClusters, svm.Options{Seed: p.seed})
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
		last := i == len(p.trainSizes)-1
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

// fig5Tables is Fig. 5(c), then the PR curves of Figs. 5(a) and 5(b).
func fig5Tables(res *Fig5Result) []Table {
	bars := newTable("Fig 5(c): AUPR by training size", "train pairs", "kNN", "SVM", "SVM clustering")
	for _, pt := range res.Points {
		bars.add(count(pt.TrainPairs), aupr(pt.AUPRKNN), aupr(pt.AUPRSVM), aupr(pt.AUPRSVMClustering))
	}
	bars.note("mean kNN improvement over SVM (paper: 19.1%)", percent(res.ImprovementOverSVM))
	largest, smallest := res.Points[len(res.Points)-1].TrainPairs, res.Points[0].TrainPairs
	return []Table{bars, prCurveTable("5(a)", largest, res.CurveLargest), prCurveTable("5(b)", smallest, res.CurveSmall)}
}

// prCurveTable samples each classifier's PR curve at about ten points.
func prCurveTable(fig string, trainPairs int, curves map[string][]eval.Point) Table {
	t := newTable(fmt.Sprintf("Fig %s: PR curve at %d training pairs", fig, trainPairs), "classifier", "recall", "precision")
	for _, name := range []string{"kNN", "SVM"} {
		points := curves[name]
		for i := 0; i < len(points); i += len(points)/10 + 1 {
			t.add(text(name), ratio(points[i].Recall, 2), ratio(points[i].Precision, 2))
		}
	}
	return t
}

// classify trains Fast kNN on data's training pairs and classifies its test
// vectors.
func classify(env *Env, data *PairData, cfg core.Config) ([]core.Result, core.Stats, error) {
	clf, err := core.Train(env.Ctx, data.Train, cfg)
	if err != nil {
		return nil, core.Stats{}, fmt.Errorf("training Fast kNN: %w", err)
	}
	return clf.Classify(data.TestVecs)
}

// scores returns the results' Eq. 5 scores, ordered by test index.
func scores(results []core.Result) []float64 {
	out := make([]float64, len(results))
	for _, r := range results {
		out[r.ID] = r.Score
	}
	return out
}
