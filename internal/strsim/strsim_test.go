package strsim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{nil, nil, 1},
		{[]string{"a"}, nil, 0},
		{nil, []string{"a"}, 0},
		{[]string{"a", "b"}, []string{"a", "b"}, 1},
		{[]string{"a", "b"}, []string{"b", "c"}, 1.0 / 3},
		{[]string{"a", "a", "b"}, []string{"a", "b", "b"}, 1}, // multiset collapse
		{[]string{"a"}, []string{"b"}, 0},
	}
	for _, c := range cases {
		if got := Jaccard(c.a, c.b); !close64(got, c.want) {
			t.Errorf("Jaccard(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaccardDistanceComplement(t *testing.T) {
	f := func(a, b []string) bool {
		return close64(JaccardDistance(a, b), 1-Jaccard(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaccardSymmetryAndRange(t *testing.T) {
	f := func(a, b []string) bool {
		s1 := Jaccard(a, b)
		s2 := Jaccard(b, a)
		return close64(s1, s2) && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaccardOnRealisticDrugNames(t *testing.T) {
	a := strings.Fields("influenza vaccine dtpa vaccine")
	b := strings.Fields("influenza vaccine dtpa vaccine")
	if got := Jaccard(a, b); got != 1 {
		t.Errorf("identical drug lists Jaccard = %v, want 1", got)
	}
	c := strings.Fields("atorvastatin")
	if got := Jaccard(a, c); got != 0 {
		t.Errorf("disjoint drug lists Jaccard = %v, want 0", got)
	}
}

func close64(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
