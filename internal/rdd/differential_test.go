package rdd

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"adrdedup/internal/cluster"
)

// Differential correctness suite for fused narrow-stage execution.
//
// Randomized RDD programs — seeded mixes of narrow operators, shuffles,
// caching, Union and Cartesian — run on the simulated cluster and are checked
// against a plain sequential in-memory oracle that applies the same operators
// to a Go slice. The cluster runs across several partition counts and under
// fault injection; in every configuration the collected multiset must be
// bit-identical to the oracle's. A second differential axis compares fused
// against unfused execution of the identical program (exact order, since
// narrow-only programs are order-deterministic).

// drec is the differential suite's record type.
type drec = Pair[int, int]

// diffOp is one program step: a cluster-side transformation paired with its
// sequential oracle. np is the shuffle partition parameter (ignored by
// narrow operators). grows marks operators that enlarge the dataset, so the
// generator can bound program blowup. shuffle marks operators that reorder
// across partitions (multiset comparison only); narrowOnly programs admit
// exact-order comparison.
type diffOp struct {
	name    string
	grows   bool
	shuffle bool
	apply   func(r *RDD[drec], np int) *RDD[drec]
	oracle  func(in []drec, np int) []drec
}

func diffOps() []diffOp {
	return []diffOp{
		{
			name: "map",
			apply: func(r *RDD[drec], _ int) *RDD[drec] {
				return Map(r, func(kv drec) drec { return KV((kv.Key*3+1)%17, kv.Value*2+1) })
			},
			oracle: func(in []drec, _ int) []drec {
				out := make([]drec, 0, len(in))
				for _, kv := range in {
					out = append(out, KV((kv.Key*3+1)%17, kv.Value*2+1))
				}
				return out
			},
		},
		{
			name: "filter",
			apply: func(r *RDD[drec], _ int) *RDD[drec] {
				return Filter(r, func(kv drec) bool { return (kv.Key+kv.Value)%3 != 0 })
			},
			oracle: func(in []drec, _ int) []drec {
				var out []drec
				for _, kv := range in {
					if (kv.Key+kv.Value)%3 != 0 {
						out = append(out, kv)
					}
				}
				return out
			},
		},
		{
			name:  "flatMap",
			grows: true,
			apply: func(r *RDD[drec], _ int) *RDD[drec] {
				return FlatMap(r, func(kv drec) []drec {
					if kv.Value%2 == 0 {
						return []drec{kv, KV(kv.Key, kv.Value+100)}
					}
					return []drec{kv}
				})
			},
			oracle: func(in []drec, _ int) []drec {
				var out []drec
				for _, kv := range in {
					out = append(out, kv)
					if kv.Value%2 == 0 {
						out = append(out, KV(kv.Key, kv.Value+100))
					}
				}
				return out
			},
		},
		{
			name: "cache",
			apply: func(r *RDD[drec], _ int) *RDD[drec] {
				return r.Cache()
			},
			oracle: func(in []drec, _ int) []drec { return in },
		},
		{
			name:  "union",
			grows: true,
			apply: func(r *RDD[drec], _ int) *RDD[drec] {
				return Union(r, Map(r, func(kv drec) drec { return KV(kv.Key+1, kv.Value+13) }))
			},
			oracle: func(in []drec, _ int) []drec {
				out := append([]drec(nil), in...)
				for _, kv := range in {
					out = append(out, KV(kv.Key+1, kv.Value+13))
				}
				return out
			},
		},
		{
			name:  "cartesian",
			grows: true,
			apply: func(r *RDD[drec], _ int) *RDD[drec] {
				other := Parallelize(r.ctx, []int{1, 2, 3}, 2)
				return Map(Cartesian(r, other), func(t Tuple2[drec, int]) drec {
					return KV(t.A.Key+t.B, t.A.Value*t.B)
				})
			},
			oracle: func(in []drec, _ int) []drec {
				var out []drec
				for _, kv := range in {
					for _, y := range []int{1, 2, 3} {
						out = append(out, KV(kv.Key+y, kv.Value*y))
					}
				}
				return out
			},
		},
		{
			name:    "partitionBy",
			shuffle: true,
			apply: func(r *RDD[drec], np int) *RDD[drec] {
				return PartitionBy(r, np)
			},
			oracle: func(in []drec, _ int) []drec { return in },
		},
		{
			name:    "reduceByKey",
			shuffle: true,
			apply: func(r *RDD[drec], np int) *RDD[drec] {
				return ReduceByKey(r, func(a, b int) int { return a + b }, np)
			},
			oracle: func(in []drec, _ int) []drec {
				sums := make(map[int]int)
				var order []int
				for _, kv := range in {
					if _, ok := sums[kv.Key]; !ok {
						order = append(order, kv.Key)
					}
					sums[kv.Key] += kv.Value
				}
				out := make([]drec, 0, len(order))
				for _, k := range order {
					out = append(out, KV(k, sums[k]))
				}
				return out
			},
		},
	}
}

// genProgram draws nOps operators from ops, bounding dataset growth to at
// most two growing operators per program.
func genProgram(rng *rand.Rand, ops []diffOp, nOps int) []diffOp {
	var prog []diffOp
	grown := 0
	for len(prog) < nOps {
		op := ops[rng.Intn(len(ops))]
		if op.grows {
			if grown >= 2 {
				continue
			}
			grown++
		}
		prog = append(prog, op)
	}
	return prog
}

func progName(prog []diffOp) string {
	s := ""
	for i, op := range prog {
		if i > 0 {
			s += "."
		}
		s += op.name
	}
	return s
}

// diffData is the deterministic input dataset: keys in a small domain so
// keyed operators collide, values spread out.
func diffData(n int) []drec {
	data := make([]drec, n)
	for i := range data {
		data[i] = KV(i%13, i*7%101)
	}
	return data
}

// runOnCluster executes prog on a fresh simulated cluster and collects the
// result. With speculate set, straggler injection and an aggressive
// speculation policy are enabled so duplicate attempts actually race the
// primaries — results must be unaffected either way.
func runOnCluster(t *testing.T, prog []diffOp, data []drec, parts int, failureRate float64, speculate bool) []drec {
	t.Helper()
	cfg := cluster.Config{
		Executors:        2,
		CoresPerExecutor: 2,
		FailureRate:      failureRate,
		MaxTaskRetries:   80,
		Seed:             99,
	}
	if speculate {
		cfg.Speculation = true
		cfg.SpeculationQuantile = 0.25
		cfg.SpeculationMultiplier = 1.1
		cfg.StragglerRate = 0.3
		cfg.StragglerVirtualMS = 40
	}
	cl := cluster.New(cfg)
	ctx := NewContext(cl)
	r := Parallelize(ctx, data, parts).SetName("diff")
	for i, op := range prog {
		r = op.apply(r, 2+i%3)
	}
	got, err := r.Collect()
	if err != nil {
		t.Fatalf("program %s (parts=%d fail=%v): %v", progName(prog), parts, failureRate, err)
	}
	return got
}

// runOracle applies prog sequentially to a plain slice.
func runOracle(prog []diffOp, data []drec) []drec {
	out := append([]drec(nil), data...)
	for i, op := range prog {
		out = op.oracle(out, 2+i%3)
	}
	return out
}

// canon sorts a record multiset into its canonical order.
func canon(in []drec) []drec {
	out := append([]drec(nil), in...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Value < out[j].Value
	})
	if len(out) == 0 {
		return nil
	}
	return out
}

// TestDifferentialFusedVsOracle: randomized programs over the full operator
// mix (narrow chains, shuffles, caching, Union, Cartesian) must produce the
// oracle's exact multiset on 1, 3, and 8 partitions, fault-free and under
// FailureRate 0.3, with and without speculative execution racing injected
// stragglers.
func TestDifferentialFusedVsOracle(t *testing.T) {
	withFusion(t, true)
	ops := diffOps()
	data := diffData(120)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := genProgram(rng, ops, 4+rng.Intn(4))
		want := canon(runOracle(prog, data))
		for _, parts := range []int{1, 3, 8} {
			for _, failureRate := range []float64{0, 0.3} {
				for _, speculate := range []bool{false, true} {
					name := fmt.Sprintf("seed%d/%s/parts%d/fail%v/spec%v", seed, progName(prog), parts, failureRate, speculate)
					got := canon(runOnCluster(t, prog, data, parts, failureRate, speculate))
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: fused cluster result diverges from oracle\n got (%d recs): %v\nwant (%d recs): %v",
							name, len(got), got, len(want), want)
					}
				}
			}
		}
	}
}

// narrowDiffOps is the operator mix for the exact-order differential: only
// order-deterministic operators (no shuffle).
func narrowDiffOps() []diffOp {
	var ops []diffOp
	for _, op := range diffOps() {
		if !op.shuffle {
			ops = append(ops, op)
		}
	}
	return ops
}

// TestDifferentialFusedVsUnfused: the identical narrow program, run on
// identically configured clusters with fusion on and off, must produce
// exactly the same sequence — element for element, order included — both
// fault-free and under fault injection.
func TestDifferentialFusedVsUnfused(t *testing.T) {
	ops := narrowDiffOps()
	data := diffData(150)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 31))
		prog := genProgram(rng, ops, 4+rng.Intn(4))
		for _, parts := range []int{1, 3, 8} {
			for _, failureRate := range []float64{0, 0.3} {
				run := func(fused bool) []drec {
					prev := SetFusionEnabled(fused)
					defer SetFusionEnabled(prev)
					return runOnCluster(t, prog, data, parts, failureRate, false)
				}
				fused, unfused := run(true), run(false)
				if len(fused) == 0 && len(unfused) == 0 {
					continue
				}
				if !reflect.DeepEqual(fused, unfused) {
					t.Errorf("seed%d/%s/parts%d/fail%v: fused order diverges from unfused\n fused: %v\nunfused: %v",
						seed, progName(prog), parts, failureRate, fused, unfused)
				}
			}
		}
	}
}
