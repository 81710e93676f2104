// Package kmeans implements Lloyd's k-means with k-means++ seeding. The
// paper uses k-means in three places: to Voronoi-partition the labelled
// training pairs (§4.3.1), to cluster the positive pairs for testing-set
// pruning (§4.3.4), and to build the "SVM clustering" baseline's training
// sample (§5.2.2). Clusters produced by k-means form a Voronoi diagram —
// each point is closer to its own center than to any other — which is the
// property Algorithm 1's hyperplane bound depends on.
package kmeans

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"adrdedup/internal/vecmath"
)

// Options configures a run. The zero value uses sensible defaults.
type Options struct {
	// MaxIter bounds Lloyd iterations (default 50).
	MaxIter int
	// Seed drives k-means++ seeding and empty-cluster repair.
	Seed int64
}

// tol stops iteration when no center moves more than it.
const tol = 1e-6

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	return o
}

// Result is a completed clustering.
type Result struct {
	// Centers holds k centroids.
	Centers [][]float64
	// Assign maps each input point to its center index.
	Assign []int
	// Sizes counts points per cluster.
	Sizes []int
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
	// Inertia is the total squared distance of points to their centers.
	Inertia float64
}

// ErrNoData is returned when there are no points to cluster.
var ErrNoData = errors.New("kmeans: no data")

// Run clusters data into k groups. When k >= len(data) every point becomes
// its own center. Results are deterministic for a given seed.
func Run(data [][]float64, k int, opts Options) (*Result, error) {
	if len(data) == 0 {
		return nil, ErrNoData
	}
	if k <= 0 {
		return nil, fmt.Errorf("kmeans: k = %d", k)
	}
	dim := len(data[0])
	for i, v := range data {
		if len(v) != dim {
			return nil, fmt.Errorf("kmeans: point %d has dim %d, want %d", i, len(v), dim)
		}
	}
	if k > len(data) {
		k = len(data)
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	// The assignment step's goroutines: one per core the run may use.
	parallelism := runtime.GOMAXPROCS(0)

	centers := seedPlusPlus(data, k, rng)
	assign := make([]int, len(data))
	res := &Result{}
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iterations = iter + 1
		inertia := assignAll(data, centers, assign, parallelism)
		res.Inertia = inertia

		newCenters, sizes := recompute(data, assign, k, dim)
		repairEmpty(newCenters, sizes, data, assign, rng)

		moved := 0.0
		for c := range centers {
			if d := vecmath.Dist(centers[c], newCenters[c]); d > moved {
				moved = d
			}
		}
		centers = newCenters
		res.Sizes = sizes
		if moved <= tol {
			break
		}
	}
	// Final assignment against the final centers.
	res.Inertia = assignAll(data, centers, assign, parallelism)
	res.Centers = centers
	res.Assign = assign
	res.Sizes = make([]int, k)
	for _, a := range assign {
		res.Sizes[a]++
	}
	return res, nil
}

// seedPlusPlus picks initial centers with the k-means++ D^2 weighting.
func seedPlusPlus(data [][]float64, k int, rng *rand.Rand) [][]float64 {
	centers := make([][]float64, 0, k)
	centers = append(centers, vecmath.Clone(data[rng.Intn(len(data))]))
	d2 := make([]float64, len(data))
	for i, v := range data {
		d2[i] = vecmath.SqDist(v, centers[0])
	}
	for len(centers) < k {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var next int
		if total <= 0 {
			// All remaining points coincide with existing centers;
			// pick uniformly.
			next = rng.Intn(len(data))
		} else {
			target := rng.Float64() * total
			acc := 0.0
			for i, d := range d2 {
				acc += d
				if acc >= target {
					next = i
					break
				}
			}
		}
		c := vecmath.Clone(data[next])
		centers = append(centers, c)
		for i, v := range data {
			if d := vecmath.SqDist(v, c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centers
}

// assignAll assigns every point to its nearest center, returning the total
// inertia. The scan parallelizes across chunks.
func assignAll(data [][]float64, centers [][]float64, assign []int, parallelism int) float64 {
	chunk := (len(data) + parallelism - 1) / parallelism
	if chunk < 1024 {
		chunk = 1024
	}
	var wg sync.WaitGroup
	partial := make([]float64, (len(data)+chunk-1)/chunk)
	for w := 0; w*chunk < len(data); w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(data) {
			hi = len(data)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var sum float64
			for i := lo; i < hi; i++ {
				a, d := vecmath.ArgMinDist(data[i], centers)
				assign[i] = a
				sum += d
			}
			partial[w] = sum
		}(w, lo, hi)
	}
	wg.Wait()
	var inertia float64
	for _, s := range partial {
		inertia += s
	}
	return inertia
}

func recompute(data [][]float64, assign []int, k, dim int) ([][]float64, []int) {
	centers := make([][]float64, k)
	sizes := make([]int, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
	}
	for i, v := range data {
		a := assign[i]
		sizes[a]++
		vecmath.Add(centers[a], v)
	}
	for c := range centers {
		if sizes[c] > 0 {
			vecmath.Scale(centers[c], 1/float64(sizes[c]))
		}
	}
	return centers, sizes
}

// repairEmpty reseats empty clusters on random points so k clusters survive.
func repairEmpty(centers [][]float64, sizes []int, data [][]float64, assign []int, rng *rand.Rand) {
	for c := range centers {
		if sizes[c] == 0 {
			p := rng.Intn(len(data))
			copy(centers[c], data[p])
		}
	}
}

// Radii returns, per cluster, the distance from the center to its farthest
// member — the dcp_i quantity of the paper's testing-set pruning (§4.3.4,
// Step 2).
func Radii(data [][]float64, res *Result) []float64 {
	radii := make([]float64, len(res.Centers))
	for i, v := range data {
		c := res.Assign[i]
		if d := vecmath.Dist(v, res.Centers[c]); d > radii[c] {
			radii[c] = d
		}
	}
	return radii
}
