package adrgen

import (
	"fmt"
	"math/rand"
	"sort"

	"adrdedup/internal/adr"
)

// LabeledPair is one report pair with its duplicate label: +1 for duplicate,
// -1 for non-duplicate (the paper's label convention).
type LabeledPair struct {
	A, B  int // indices into Corpus.Reports
	Label int
}

// PairSampleOptions controls labelled pair-set construction.
type PairSampleOptions struct {
	// Total is the pair count to produce. Since positives are fixed by the
	// ground truth, the negative count is Total - len(Positives) — the
	// extreme imbalance of §3 arises naturally.
	Total int
	// Positives selects which ground-truth duplicate pairs to include
	// (e.g. the training half of a split). Nil means all of them.
	Positives []DuplicatePair
	// HardFraction is the share of negatives sampled from confusable
	// report pairs: two distinct reports of the same campaign (same
	// drug, onset date, state, overlapping reactions) or, failing that,
	// pairs sharing a drug or an ADR term. The remainder is sampled
	// uniformly.
	HardFraction float64
	// Seed makes sampling deterministic.
	Seed int64
}

// SamplePairs builds a labelled pair set: every selected ground-truth
// duplicate pair (label +1) plus sampled distinct non-duplicate pairs
// (label -1) up to Total.
func (c *Corpus) SamplePairs(opts PairSampleOptions) ([]LabeledPair, error) {
	positives := opts.Positives
	if positives == nil {
		positives = c.Duplicates
	}
	if opts.Total < len(positives) {
		return nil, fmt.Errorf("adrgen: total %d smaller than %d positives", opts.Total, len(positives))
	}
	if opts.HardFraction < 0 || opts.HardFraction > 1 {
		return nil, fmt.Errorf("adrgen: hard fraction %v out of [0,1]", opts.HardFraction)
	}
	n := len(c.Reports)
	if n < 2 {
		return nil, fmt.Errorf("adrgen: corpus too small (%d reports)", n)
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	isDup := make(map[[2]int]bool, len(c.Duplicates))
	for _, d := range c.Duplicates {
		isDup[pairKey(d.IdxA, d.IdxB)] = true
	}

	out := make([]LabeledPair, 0, opts.Total)
	used := make(map[[2]int]bool, opts.Total)
	for _, d := range positives {
		k := pairKey(d.IdxA, d.IdxB)
		if used[k] {
			continue
		}
		used[k] = true
		out = append(out, LabeledPair{A: d.IdxA, B: d.IdxB, Label: +1})
	}

	byDrug := c.indexBy(func(r adr.Report) []string { return adr.SplitMulti(r.GenericNameDesc) })
	byADR := c.indexBy(func(r adr.Report) []string { return adr.SplitMulti(r.MedDRAPTName) })
	var campaignMembers [][]int
	if len(c.CampaignOf) == len(c.Reports) {
		byCampaign := make(map[int][]int)
		for i, camp := range c.CampaignOf {
			if camp >= 0 {
				byCampaign[camp] = append(byCampaign[camp], i)
			}
		}
		for _, members := range byCampaign {
			if len(members) >= 2 {
				campaignMembers = append(campaignMembers, members)
			}
		}
		sort.Slice(campaignMembers, func(i, j int) bool {
			return campaignMembers[i][0] < campaignMembers[j][0]
		})
	}

	needed := opts.Total - len(out)
	hardTarget := int(float64(needed) * opts.HardFraction)
	// Cap each loop's attempts so a pathological corpus (e.g. every report
	// identical) cannot loop forever. The hard loop and the random fill each
	// get the whole budget: a small corpus with few distinct hard pairs can
	// spend all of the hard loop's without starving the fill.
	maxAttempts := 50*needed + 1000
	addPair := func(a, b int) bool {
		if a == b {
			return false
		}
		k := pairKey(a, b)
		if used[k] || isDup[k] {
			return false
		}
		used[k] = true
		out = append(out, LabeledPair{A: k[0], B: k[1], Label: -1})
		return true
	}
	for hard, attempts := 0, 0; hard < hardTarget && attempts < maxAttempts; attempts++ {
		// Prefer confusable same-campaign pairs; fall back to pairs
		// sharing a drug or an ADR term.
		if len(campaignMembers) > 0 && rng.Float64() < 0.6 {
			members := campaignMembers[rng.Intn(len(campaignMembers))]
			a := members[rng.Intn(len(members))]
			b := members[rng.Intn(len(members))]
			if addPair(a, b) {
				hard++
			}
			continue
		}
		idx := byDrug
		if rng.Float64() < 0.5 {
			idx = byADR
		}
		a := rng.Intn(n)
		keys := idx.keysOf[a]
		if len(keys) == 0 {
			continue
		}
		peers := idx.byKey[keys[rng.Intn(len(keys))]]
		if len(peers) < 2 {
			continue
		}
		b := peers[rng.Intn(len(peers))]
		if addPair(a, b) {
			hard++
		}
	}
	for attempts := 0; len(out) < opts.Total && attempts < maxAttempts; attempts++ {
		addPair(rng.Intn(n), rng.Intn(n))
	}
	if len(out) < opts.Total {
		return nil, fmt.Errorf("adrgen: could only sample %d of %d pairs", len(out), opts.Total)
	}
	// Positives were emitted first; shuffle so downstream partitioning
	// does not see them clustered.
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// SplitDuplicates partitions the ground-truth duplicate pairs into a
// training and a testing subset, deterministically for a given seed.
func (c *Corpus) SplitDuplicates(trainFraction float64, seed int64) (train, test []DuplicatePair) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(c.Duplicates))
	cut := int(float64(len(c.Duplicates)) * trainFraction)
	for i, p := range perm {
		if i < cut {
			train = append(train, c.Duplicates[p])
		} else {
			test = append(test, c.Duplicates[p])
		}
	}
	return train, test
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

type valueIndex struct {
	keysOf [][]string
	byKey  map[string][]int
}

func (c *Corpus) indexBy(keys func(adr.Report) []string) *valueIndex {
	idx := &valueIndex{
		keysOf: make([][]string, len(c.Reports)),
		byKey:  make(map[string][]int),
	}
	for i, r := range c.Reports {
		ks := keys(r)
		idx.keysOf[i] = ks
		for _, k := range ks {
			idx.byKey[k] = append(idx.byKey[k], i)
		}
	}
	return idx
}
