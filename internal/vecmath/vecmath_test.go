package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{0, 0}, []float64{3, 4}, 5},
		{[]float64{1, 1, 1}, []float64{1, 1, 1}, 0},
		{[]float64{-1}, []float64{1}, 2},
		{nil, nil, 0},
	}
	for _, c := range cases {
		if got := Dist(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDistPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	Dist([]float64{1}, []float64{1, 2})
}

func randVecPair(rng *rand.Rand, n int) ([]float64, []float64) {
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	return a, b
}

func TestMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(8) + 1
		a, b := randVecPair(rng, n)
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		if d := Dist(a, a); d != 0 {
			t.Fatalf("identity violated: Dist(a,a)=%v", d)
		}
		if d1, d2 := Dist(a, b), Dist(b, a); math.Abs(d1-d2) > 1e-12 {
			t.Fatalf("symmetry violated: %v vs %v", d1, d2)
		}
		if Dist(a, c) > Dist(a, b)+Dist(b, c)+1e-9 {
			t.Fatalf("triangle inequality violated")
		}
	}
}

func TestSqDistConsistentWithDist(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randVecPair(rng, 5)
		return math.Abs(Dist(a, b)*Dist(a, b)-SqDist(a, b)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Errorf("Dot(nil, nil) = %v, want 0", got)
	}
}

func TestNorm(t *testing.T) {
	if got := Norm([]float64{3, 4}); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
}

func TestAddScale(t *testing.T) {
	v := []float64{1, 2}
	Add(v, []float64{3, 4})
	if v[0] != 4 || v[1] != 6 {
		t.Errorf("Add result %v, want [4 6]", v)
	}
	Scale(v, 0.5)
	if v[0] != 2 || v[1] != 3 {
		t.Errorf("Scale result %v, want [2 3]", v)
	}
}

func TestArgMinDist(t *testing.T) {
	centers := [][]float64{{0, 0}, {10, 10}, {5, 5}}
	idx, d := ArgMinDist([]float64{4, 4}, centers)
	if idx != 2 {
		t.Errorf("ArgMinDist index = %d, want 2", idx)
	}
	if math.Abs(d-2) > 1e-12 {
		t.Errorf("ArgMinDist sqdist = %v, want 2", d)
	}
}

func TestArgMinDistFirstOnTie(t *testing.T) {
	centers := [][]float64{{1, 0}, {-1, 0}}
	idx, _ := ArgMinDist([]float64{0, 0}, centers)
	if idx != 0 {
		t.Errorf("tie should resolve to first center, got %d", idx)
	}
}

func TestCloneIndependence(t *testing.T) {
	v := []float64{1, 2, 3}
	c := Clone(v)
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares backing array with source")
	}
}
