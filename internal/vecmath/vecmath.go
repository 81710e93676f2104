// Package vecmath provides dense float64 vector operations shared by the
// clustering, kNN, and classification packages. Vectors are plain []float64
// slices; all binary operations require equal lengths and panic otherwise,
// since a length mismatch is always a programming error in this codebase.
package vecmath

import (
	"fmt"
	"math"
)

// Dist returns the Euclidean (L2) distance between a and b.
func Dist(a, b []float64) float64 {
	return math.Sqrt(SqDist(a, b))
}

// SqDist returns the squared Euclidean distance between a and b. Prefer it
// over Dist for comparisons: it avoids the square root and preserves order.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm returns the L2 norm of v.
func Norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Add accumulates src into dst element-wise.
func Add(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vecmath: dimension mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// Scale multiplies every element of v by c in place.
func Scale(v []float64, c float64) {
	for i := range v {
		v[i] *= c
	}
}

// ArgMinDist returns the index of the center nearest to v (squared Euclidean)
// and the squared distance to it. It panics when centers is empty.
func ArgMinDist(v []float64, centers [][]float64) (int, float64) {
	if len(centers) == 0 {
		panic("vecmath: no centers")
	}
	best := 0
	bestD := SqDist(v, centers[0])
	for i := 1; i < len(centers); i++ {
		if d := SqDist(v, centers[i]); d < bestD {
			best = i
			bestD = d
		}
	}
	return best, bestD
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}
