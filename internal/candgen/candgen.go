package candgen

import (
	"cmp"
	"fmt"
	"sort"

	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
	"adrdedup/internal/strsim"
)

// Mode selects the parallel all-pairs partitioning (Özkural & Aykanat).
type Mode int

const (
	// OneD shards probing by record blocks against one shared prefix
	// index — the 1-D row-wise partitioning. Index construction is itself
	// a record-block stage; the driver concatenates the shard postings.
	OneD Mode = iota
	// TwoD shards by block *pairs*: records split into B size-ordered
	// blocks and each of the B(B+1)/2 block pairs becomes one task that
	// indexes one block and probes the other. No shared index, no
	// cross-task pair overlap.
	TwoD
)

func (m Mode) String() string {
	if m == TwoD {
		return "prefix-2d"
	}
	return "prefix-1d"
}

// Params configures a generation run.
type Params struct {
	// Theta is the Jaccard similarity threshold over signature sets; a
	// pair is emitted iff JaccardSimAtLeast(sig(a), sig(b), Theta). Must
	// be in (0, 1].
	Theta float64
	// Partitions is the probe-stage task count (OneD) or the record block
	// count B (TwoD, giving B(B+1)/2 tasks). 0 uses the engine's default
	// parallelism.
	Partitions int
	// Mode selects the partitioning; the zero value is OneD.
	Mode Mode
	// MinArrival restricts output to Eq. 3's incremental shape: only
	// pairs with max(A, B) >= MinArrival — at least one end in the new
	// batch — are generated. 0 generates all pairs.
	MinArrival int
}

func (p Params) validate() error {
	if p.Theta <= 0 || p.Theta > 1 {
		return fmt.Errorf("candgen: theta %v outside (0, 1]", p.Theta)
	}
	if p.Mode != OneD && p.Mode != TwoD {
		return fmt.Errorf("candgen: unknown mode %d", p.Mode)
	}
	if p.MinArrival < 0 {
		return fmt.Errorf("candgen: negative MinArrival %d", p.MinArrival)
	}
	return nil
}

// Stats reports how much work generation did — the numbers behind the
// candidate-reduction claims.
type Stats struct {
	// Records is the input size; EmptyRecords of them had empty
	// signatures (paired among themselves at similarity 1).
	Records, EmptyRecords int
	// IndexEntries counts prefix postings entered into inverted indexes
	// (2-D counts per-task indexes, whose union covers each prefix once
	// per off-diagonal block pairing; Index.Probe counts those entered
	// since the previous probe, a rebuild's included).
	IndexEntries int64
	// Scanned counts the posting-list entries that could pair with their
	// prober: those inside the length bound, and for Index.Probe only in
	// the lists where the pair's first common token can sit (its mid
	// lists, and its tail lists for partners longer than the prober);
	// Verified counts full merge-scan verifications (each candidate pair
	// exactly once); Emitted counts pairs passing verification.
	Scanned, Verified, Emitted int64
	// BitmapPruned counts the candidates Index.Probe ruled out with the
	// hashed-bitmap overlap bound instead of verifying them; the one-shot
	// Pairs has no such filter and leaves it zero.
	BitmapPruned int64
}

// TotalPairs is the size of the search space the generator replaces: all
// unordered pairs over n records, restricted to pairs with max end >=
// minArrival when minArrival > 0.
func TotalPairs(n, minArrival int) int64 {
	all := int64(n) * int64(n-1) / 2
	if minArrival <= 0 || minArrival >= n {
		if minArrival >= n {
			return 0
		}
		return all
	}
	old := int64(minArrival)
	return all - old*(old-1)/2
}

// Signatures extracts the signature set of every feature (the sorted union
// of its interned token-ID sets). All features must be interned — signature
// comparison is only meaningful inside one interner ID space.
func Signatures(feats []pairdist.Features) ([][]uint32, error) {
	sigs := make([][]uint32, len(feats))
	for i, f := range feats {
		s, ok := f.SignatureIDs()
		if !ok {
			return nil, fmt.Errorf("candgen: feature %d not interned", i)
		}
		sigs[i] = s
	}
	return sigs, nil
}

// pairCmp orders IDPairs by (A, B).
func pairCmp(a, b pairdist.IDPair) int {
	if c := cmp.Compare(a.A, b.A); c != 0 {
		return c
	}
	return cmp.Compare(a.B, b.B)
}

func pairLess(a, b pairdist.IDPair) bool { return pairCmp(a, b) < 0 }

// Pairs generates every unordered record pair whose signature Jaccard
// similarity reaches p.Theta, as rdd stages on ctx's engine. The result is
// sorted by (A, B) with A < B and is exactly the brute-force ≥θ set —
// prefix filtering prunes candidates, never answers. See Params.MinArrival
// for the incremental restriction.
func Pairs(ctx *rdd.Context, sigs [][]uint32, p Params) ([]pairdist.IDPair, Stats, error) {
	var st Stats
	if err := p.validate(); err != nil {
		return nil, st, err
	}
	n := len(sigs)
	st.Records = n
	if n < 2 || p.MinArrival >= n {
		return nil, st, nil
	}
	parts := p.Partitions
	if parts <= 0 {
		parts = ctx.DefaultParallelism()
	}

	// Stage 1: global token frequencies, counted per record block.
	src := rdd.Parallelize(ctx, sigs, parts).SetName("signatures").WithBytesPerRecord(64)
	partials, err := rdd.MapPartitions(src, func(in [][]uint32) ([]map[uint32]int64, error) {
		return []map[uint32]int64{countTokens(in)}, nil
	}).SetName("candgen.tokenFreq").Collect()
	if err != nil {
		return nil, st, fmt.Errorf("candgen: counting token frequencies: %w", err)
	}
	counts := make(map[uint32]int64)
	for _, m := range partials {
		mergeCounts(counts, m)
	}
	ranks := rankTokens(counts)

	// Stage 2: each signature re-ordered into frequency-rank space.
	// Narrow map over the block-partitioned source, so Collect preserves
	// record order and positions align with record IDs.
	ctx.Cluster().Broadcast(int64(len(ranks)) * 8)
	ordered, err := rdd.Map(src, func(sig []uint32) []uint32 {
		return rankTransform(sig, ranks)
	}).SetName("candgen.rank").Collect()
	if err != nil {
		return nil, st, fmt.Errorf("candgen: rank-ordering signatures: %w", err)
	}
	pl := assemblePlan(ordered, p.Theta)
	st.EmptyRecords = len(pl.empty)

	var pairs []pairdist.IDPair
	switch p.Mode {
	case OneD:
		pairs, err = pl.runOneD(ctx, p, parts, &st)
	case TwoD:
		pairs, err = pl.runTwoD(ctx, p, parts, &st)
	}
	if err != nil {
		return nil, st, err
	}

	// Empty signatures are mutually similar at 1 >= theta; pair them,
	// honoring the incremental restriction.
	for i := 0; i < len(pl.empty); i++ {
		for j := i + 1; j < len(pl.empty); j++ {
			a, b := pl.empty[i], pl.empty[j]
			if p.MinArrival > 0 && int(b) < p.MinArrival {
				continue
			}
			pairs = append(pairs, pairdist.IDPair{A: int(a), B: int(b)})
		}
	}

	sort.Slice(pairs, func(i, j int) bool { return pairLess(pairs[i], pairs[j]) })
	st.Emitted = int64(len(pairs))
	return pairs, st, nil
}

// taskResult is one probe task's output: its verified pairs plus its share
// of the work counters, merged driver-side.
type taskResult struct {
	pairs []pairdist.IDPair
	st    Stats
}

func mergeResults(results []taskResult, st *Stats) []pairdist.IDPair {
	var pairs []pairdist.IDPair
	for _, r := range results {
		pairs = append(pairs, r.pairs...)
		st.IndexEntries += r.st.IndexEntries
		st.Scanned += r.st.Scanned
		st.Verified += r.st.Verified
		st.BitmapPruned += r.st.BitmapPruned
	}
	return pairs
}

// runOneD: stage "prefixIndex" builds postings per record block (the driver
// concatenates the shards — posting lists stay position-sorted because
// blocks are contiguous in processing order), then stage "probe1d" scans
// each prober block against the shared index.
func (pl *plan) runOneD(ctx *rdd.Context, p Params, parts int, st *Stats) ([]pairdist.IDPair, error) {
	type posting struct {
		tok uint32
		ent postEntry
	}
	positions := make([]int32, len(pl.order))
	for i := range positions {
		positions[i] = int32(i)
	}
	posSrc := rdd.Parallelize(ctx, positions, parts).SetName("orderPositions").WithBytesPerRecord(4)
	shards, err := rdd.MapPartitions(posSrc, func(in []int32) ([]posting, error) {
		var out []posting
		for _, pos := range in {
			id := pl.order[pos]
			for k, t := range pl.prefix(id) {
				out = append(out, posting{tok: t, ent: postEntry{pos: pos, idx: int32(k)}})
			}
		}
		return out, nil
	}).SetName("candgen.prefixIndex").WithBytesPerRecord(12).Collect()
	if err != nil {
		return nil, fmt.Errorf("candgen: building prefix index: %w", err)
	}
	idx := make(postings)
	for _, e := range shards {
		idx[e.tok] = append(idx[e.tok], e.ent)
	}
	st.IndexEntries = int64(len(shards))

	isProber := func(id int32) bool { return p.MinArrival == 0 || int(id) >= p.MinArrival }
	var probers []int32
	for _, id := range pl.order {
		if isProber(id) {
			probers = append(probers, id)
		}
	}
	if len(probers) == 0 {
		return nil, nil
	}

	// The index and rank-space signatures are broadcast to the probe
	// tasks; charge them like ComputeVectors charges its feature table.
	ctx.Cluster().Broadcast(int64(len(shards))*8 + recordBytes(pl.ordered))
	probeSrc := rdd.Parallelize(ctx, probers, parts).SetName("probers").WithBytesPerRecord(4)
	results, err := rdd.MapPartitions(probeSrc, func(in []int32) ([]taskResult, error) {
		var res taskResult
		sc := pl.newProbeScratch()
		for _, rid := range in {
			pl.probeRecord(idx, rid, isProber, sc, &res.st, func(a, b int32) {
				res.pairs = append(res.pairs, pairdist.IDPair{A: int(a), B: int(b)})
			})
		}
		return []taskResult{res}, nil
	}).SetName("candgen.probe1d").Collect()
	if err != nil {
		return nil, fmt.Errorf("candgen: probing prefix index: %w", err)
	}
	return mergeResults(results, st), nil
}

// runTwoD: records split into B contiguous blocks of the processing order;
// each unordered block pair becomes one self-contained task that indexes
// the first block and probes the second.
func (pl *plan) runTwoD(ctx *rdd.Context, p Params, parts int, st *Stats) ([]pairdist.IDPair, error) {
	m := len(pl.order)
	if m == 0 {
		return nil, nil
	}
	blocks := parts
	if blocks > m {
		blocks = m
	}
	bounds := make([]int, blocks+1)
	for b := 0; b <= blocks; b++ {
		bounds[b] = b * m / blocks
	}
	type blockPair struct{ i, j int }
	var tasks []blockPair
	for i := 0; i < blocks; i++ {
		for j := i; j < blocks; j++ {
			tasks = append(tasks, blockPair{i, j})
		}
	}
	admit := func(a, b int32) bool {
		return p.MinArrival == 0 || int(a) >= p.MinArrival || int(b) >= p.MinArrival
	}

	ctx.Cluster().Broadcast(recordBytes(pl.ordered))
	taskSrc := rdd.Parallelize(ctx, tasks, len(tasks)).SetName("blockPairs").WithBytesPerRecord(8)
	results, err := rdd.MapPartitions(taskSrc, func(in []blockPair) ([]taskResult, error) {
		var res taskResult
		for _, t := range in {
			pl.probeBlockPair(bounds[t.i], bounds[t.i+1], bounds[t.j], bounds[t.j+1], admit, &res.st,
				func(a, b int32) {
					res.pairs = append(res.pairs, pairdist.IDPair{A: int(a), B: int(b)})
				})
		}
		return []taskResult{res}, nil
	}).SetName("candgen.block2d").Collect()
	if err != nil {
		return nil, fmt.Errorf("candgen: probing 2-D block pairs: %w", err)
	}
	return mergeResults(results, st), nil
}

func recordBytes(ordered [][]uint32) int64 {
	var n int64
	for _, s := range ordered {
		n += int64(len(s)) * 4
	}
	return n
}

// BruteForcePairs is the quadratic recall oracle: every unordered pair
// checked with the same verification predicate the generator uses. It
// defines the set Pairs must reproduce; experiments time it to show where
// the quadratic wall stands.
func BruteForcePairs(sigs [][]uint32, theta float64, minArrival int) []pairdist.IDPair {
	var out []pairdist.IDPair
	for b := 1; b < len(sigs); b++ {
		if minArrival > 0 && b < minArrival {
			continue
		}
		for a := 0; a < b; a++ {
			if strsim.JaccardSimAtLeast(sigs[a], sigs[b], theta) {
				out = append(out, pairdist.IDPair{A: a, B: b})
			}
		}
	}
	return out
}
