package eval

import (
	"math"
	"math/rand"
	"testing"
)

func TestPRCurvePerfectRanking(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.3, 0.2, 0.1}
	labels := []int{1, 1, -1, -1, -1}
	points, err := PRCurve(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	// First point: threshold 0.9, 1 TP: precision 1, recall 0.5.
	if points[0].Precision != 1 || points[0].Recall != 0.5 {
		t.Errorf("first point = %+v", points[0])
	}
	// Second point: both positives found, no FP yet.
	if points[1].Precision != 1 || points[1].Recall != 1 {
		t.Errorf("second point = %+v", points[1])
	}
	// Last point: everything predicted positive.
	last := points[len(points)-1]
	if last.Recall != 1 || math.Abs(last.Precision-0.4) > 1e-12 {
		t.Errorf("last point = %+v", last)
	}
	aupr, err := AUPR(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if aupr != 1 {
		t.Errorf("perfect ranking AUPR = %v, want 1", aupr)
	}
}

func TestAUPRWorstRanking(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.7, 0.2, 0.1}
	labels := []int{-1, -1, -1, 1, 1}
	aupr, err := AUPR(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	// Positives at ranks 4 and 5: AP = (1/4 + 2/5)/2 = 0.325.
	if math.Abs(aupr-0.325) > 1e-12 {
		t.Errorf("AUPR = %v, want 0.325", aupr)
	}
}

func TestAUPRTiedScores(t *testing.T) {
	// All scores tied: one group; precision = base rate; AP = base rate.
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []int{1, -1, -1, -1}
	aupr, err := AUPR(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(aupr-0.25) > 1e-12 {
		t.Errorf("tied AUPR = %v, want 0.25", aupr)
	}
	points, err := PRCurve(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Errorf("tied scores should yield one PR point, got %d", len(points))
	}
}

func TestRandomScoresApproachBaseRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20000
	scores := make([]float64, n)
	labels := make([]int, n)
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = -1
		if rng.Float64() < 0.05 {
			labels[i] = 1
		}
	}
	aupr, err := AUPR(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if aupr < 0.03 || aupr > 0.08 {
		t.Errorf("random AUPR = %v, want near base rate 0.05", aupr)
	}
}

func TestErrNoPositives(t *testing.T) {
	if _, err := AUPR([]float64{1, 2}, []int{-1, -1}); err != ErrNoPositives {
		t.Errorf("AUPR err = %v", err)
	}
	if _, err := PRCurve([]float64{1}, []int{-1}); err != ErrNoPositives {
		t.Errorf("PRCurve err = %v", err)
	}
	if _, err := AUPR([]float64{1}, []int{1, 1}); err == nil {
		t.Error("length mismatch must error")
	}
}

func TestPRCurveMonotoneRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	scores := make([]float64, 500)
	labels := make([]int, 500)
	for i := range scores {
		scores[i] = rng.NormFloat64()
		if rng.Float64() < 0.1 {
			labels[i] = 1
		} else {
			labels[i] = -1
		}
	}
	points, err := PRCurve(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, p := range points {
		if p.Recall < prev {
			t.Fatal("recall decreased along the curve")
		}
		if p.Precision < 0 || p.Precision > 1 {
			t.Fatalf("precision out of range: %v", p.Precision)
		}
		prev = p.Recall
	}
	if points[len(points)-1].Recall != 1 {
		t.Error("curve must end at full recall")
	}
}

func TestBetterRankingHigherAUPR(t *testing.T) {
	// Property: moving a positive up in the ranking never lowers AUPR.
	scores := []float64{5, 4, 3, 2, 1}
	worse := []int{-1, -1, 1, -1, 1}
	better := []int{1, -1, -1, -1, 1}
	a1, err := AUPR(scores, worse)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := AUPR(scores, better)
	if err != nil {
		t.Fatal(err)
	}
	if a2 <= a1 {
		t.Errorf("better ranking AUPR %v <= worse %v", a2, a1)
	}
}
