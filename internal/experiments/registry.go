package experiments

import "fmt"

// sizing is what the command line says about an exhibit's run: -scale,
// -quick, -seed and -workers. The registry below is the only place that
// turns it into sizes.
type sizing struct {
	scale   float64
	quick   bool
	seed    int64
	workers int
	err     error // the first size that scaled below one
}

// n scales a pair count: one tenth of it at -quick, times -scale. A count
// that scales below one is a usage error, kept for Select to report.
func (s *sizing) n(base int) int {
	if s.quick {
		base /= 10
	}
	n := int(float64(base) * s.scale)
	if n < 1 && s.err == nil {
		s.err = fmt.Errorf("-scale %g shrinks a size of %d to %d", s.scale, base, n)
	}
	return n
}

func (s *sizing) ns(bases ...int) []int {
	out := make([]int, len(bases))
	for i, b := range bases {
		out[i] = s.n(b)
	}
	return out
}

// pick is a size -scale does not touch: one value at -quick, another at full
// size.
func (s *sizing) pick(quick, full int) int {
	if s.quick {
		return quick
	}
	return full
}

// runFunc builds an exhibit's tables; env is nil for an exhibit that does not
// need the shared environment.
type runFunc func(env *Env) ([]Table, error)

// Exhibit is one registry entry: the name the command line accepts, whether
// it runs on the shared Env, and plan, which sizes it and returns its run.
type Exhibit struct {
	Name     string
	NeedsEnv bool
	plan     func(s *sizing) runFunc
	run      runFunc // plan's result, set by Select
}

// Run builds the exhibit's tables on env (nil unless NeedsEnv), on the
// engine NewEnv built whatever exhibits ran on env before.
func (e Exhibit) Run(env *Env) ([]Table, error) {
	if env != nil {
		env.restoreEngine()
	}
	tables, err := e.run(env)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.Name, err)
	}
	return tables, nil
}

// Pair counts are one tenth of the paper's (100k-500k instead of 1M-5M),
// which -scale multiplies back up.
var registry = []Exhibit{
	{Name: "table1", NeedsEnv: true, plan: func(*sizing) runFunc {
		return func(env *Env) ([]Table, error) { return Table1(env.Corpus), nil }
	}},
	{Name: "table2", NeedsEnv: false, plan: func(*sizing) runFunc {
		return func(*Env) ([]Table, error) { return []Table{Table2()}, nil }
	}},
	{Name: "table3", NeedsEnv: true, plan: func(*sizing) runFunc {
		return func(env *Env) ([]Table, error) {
			t, err := Table3(env.Corpus)
			return []Table{t}, err
		}
	}},
	{Name: "fig5", NeedsEnv: true, plan: func(s *sizing) runFunc {
		p := Fig5Params{trainSizes: s.ns(100_000, 200_000, 300_000, 400_000, 500_000), testSize: s.n(20_000), seed: s.seed}
		return func(env *Env) ([]Table, error) { return build(fig5Tables)(Fig5(env, p)) }
	}},
	{Name: "fig6", NeedsEnv: true, plan: func(s *sizing) runFunc {
		p := Fig6Params{ks: []int{5, 9, 13, 17, 21}, trainSize: s.n(300_000), testSize: s.n(10_000), seed: s.seed}
		return func(env *Env) ([]Table, error) { return build(fig6Tables)(Fig6(env, p)) }
	}},
	{Name: "fig7", NeedsEnv: true, plan: func(s *sizing) runFunc {
		p := fig7Sweep(s)
		return func(env *Env) ([]Table, error) { return build(fig7Tables)(Fig7(env, p)) }
	}},
	{Name: "fig8", NeedsEnv: true, plan: func(s *sizing) runFunc {
		p := fig7Sweep(s)
		p.pressureMemoryBytes = 1 << 20
		return func(env *Env) ([]Table, error) { return build(p.fig8Tables)(Fig7(env, p)) }
	}},
	{Name: "fig9", NeedsEnv: true, plan: func(s *sizing) runFunc {
		p := Fig9Params{
			trainSizes: s.ns(100_000, 200_000, 300_000, 400_000, 500_000), blockNumbers: []int{4, 8, 12},
			testSize: s.n(10_000), seed: s.seed,
		}
		return func(env *Env) ([]Table, error) { return build(fig9Tables)(Fig9(env, p)) }
	}},
	{Name: "fig10", NeedsEnv: true, plan: func(s *sizing) runFunc {
		p := Fig10Params{
			executors: []int{5, 10, 15, 20, 25}, trainSizes: s.ns(200_000, 300_000, 400_000),
			testSize: s.n(10_000), distancePairs: s.n(100_000), seed: s.seed,
		}
		return func(env *Env) ([]Table, error) { return build(fig10Tables)(Fig10(env, p)) }
	}},
	{Name: "fig11", NeedsEnv: true, plan: func(s *sizing) runFunc {
		// l = 20 positive clusters: the paper's 200, scaled to the ~140-pair
		// positive set.
		p := Fig11Params{
			thresholds: []float64{0.3, 0.5, 0.7, 0.9}, trainSize: s.n(100_000), testSize: s.n(200_000),
			positiveClusters: 20, seed: s.seed,
		}
		return func(env *Env) ([]Table, error) { return build(fig11Tables)(Fig11(env, p)) }
	}},
	{Name: "ablation", NeedsEnv: true, plan: func(s *sizing) runFunc {
		train, test := s.n(200_000), s.n(10_000)
		return func(env *Env) ([]Table, error) { return build(ablationTables)(Ablation(env, train, test, s.seed)) }
	}},
	{Name: "loadbalance", NeedsEnv: true, plan: func(s *sizing) runFunc {
		p := LoadBalanceParams{trainSize: s.n(200_000), testSize: s.n(10_000), b: 48, executors: 16, seed: s.seed}
		return func(env *Env) ([]Table, error) { return build(loadBalanceTables)(LoadBalance(env, p)) }
	}},
	{Name: "speculation", NeedsEnv: true, plan: func(s *sizing) runFunc {
		return func(env *Env) ([]Table, error) { return build(speculationTables)(Speculation(env, s.seed)) }
	}},
	{Name: "recovery", NeedsEnv: true, plan: func(s *sizing) runFunc {
		return func(env *Env) ([]Table, error) { return build(recoveryTables)(Recovery(env, s.seed)) }
	}},
	{Name: "candidates", NeedsEnv: false, plan: func(s *sizing) runFunc {
		p := CandidatesParams{records: s.pick(5_000, 100_000), samplePairs: 200_000, seed: s.seed}
		return func(*Env) ([]Table, error) { return build(candidatesTables)(Candidates(p, s.workers)) }
	}},
	{Name: "spill", NeedsEnv: false, plan: func(s *sizing) runFunc {
		p := SpillParams{records: s.pick(1_500, 4_000), partitions: s.pick(8, 16), seed: s.seed}
		return func(*Env) ([]Table, error) { return build(spillTables)(Spill(p, s.workers)) }
	}},
}

func fig7Sweep(s *sizing) Fig7Params {
	return Fig7Params{bs: []int{10, 25, 40, 55, 70}, trainSize: s.n(400_000), testSize: s.n(10_000), seed: s.seed}
}

// build turns an exhibit's (rows, error) result into its tables:
// build(fig6Tables)(Fig6(env, p)).
func build[R any](tables func(R) []Table) func(R, error) ([]Table, error) {
	return func(rows R, err error) ([]Table, error) {
		if err != nil {
			return nil, err
		}
		return tables(rows), nil
	}
}

// Names lists what the command line accepts: every exhibit, in the order
// "all" runs them, then "all".
func Names() []string {
	var names []string
	for _, e := range registry {
		names = append(names, e.Name)
	}
	return append(names, "all")
}

// Select sizes the exhibits a command line names: one, or every one for
// "all". It fails without running anything if the name is unknown, scale is
// not positive, or a size scales below one. workers is the engine pool size
// of the exhibits that build their own cluster (0 = NumCPU).
func Select(name string, scale float64, quick bool, seed int64, workers int) ([]Exhibit, error) {
	if !(scale > 0) {
		return nil, fmt.Errorf("-scale must be a positive number, not %g", scale)
	}
	var out []Exhibit
	for _, e := range registry {
		if name != "all" && name != e.Name {
			continue
		}
		s := &sizing{scale: scale, quick: quick, seed: seed, workers: workers}
		if e.run = e.plan(s); s.err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, s.err)
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown exhibit %q", name)
	}
	return out, nil
}
