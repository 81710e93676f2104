// Package candgen generates candidate report pairs for duplicate detection
// without enumerating the quadratic all-pairs space. Reports are reduced to
// signature sets of interned token IDs, re-ordered by ascending global token
// frequency, and only each set's length-derived *prefix* is entered into an
// inverted index: two sets whose Jaccard similarity reaches the threshold θ
// must share a token inside both prefixes, so scanning prefix posting lists
// finds every qualifying pair. Survivors of the length bound
// (strsim.JaccardSimUpperBound) are verified exactly with the merge-scan
// strsim.JaccardSimAtLeast, making the emitted pair set identical to the
// brute-force ≥θ set.
//
// Generation is sharded onto the embedded engine as rdd stages using the
// 1-D (record-block) and 2-D (block-pair) all-pairs partitionings of
// Özkural & Aykanat (arXiv:1402.3010), so candidate generation runs with
// traces, speculative execution, and chaos injection like every other stage.
//
// Pairs is the one-shot batch form: it ranks, orders and indexes a whole
// corpus per call. Index is the persistent form the Detector keeps across
// Detect calls: the same filter and verifier over an append-only index whose
// token order is frozen between occasional rebuilds.
package candgen

import (
	"sort"

	"adrdedup/internal/strsim"
)

// plan is the driver-side preparation shared by both partitionings: every
// signature mapped into frequency-rank space, records ordered by set size,
// and prefix lengths fixed by θ.
//
// Rank space: tokens are renumbered so that rank order == (ascending global
// frequency, then token ID). The renumbering is a bijection, so Jaccard over
// rank sets equals Jaccard over the original ID sets — verification runs
// directly on the rank-space signatures. Sorting each signature ascending by
// rank puts its rarest tokens first, which is exactly what keeps prefix
// posting lists short.
type plan struct {
	theta   float64
	ordered [][]uint32 // rank-space signatures, each sorted ascending

	// order lists the non-empty record IDs by (set size, ID) ascending —
	// the processing order. pos is its inverse (-1 for empty records).
	order []int32
	pos   []int32
	// lens[p] is the signature size of the record at order[p]; ascending
	// along order, which is what lets posting-list scans early-out on the
	// length bound.
	lens []int32
	// prefixLen[id] is the number of leading rank-space tokens indexed
	// for record id: len - minOverlap(len) + 1.
	prefixLen []int32
	// empty lists record IDs with empty signatures, ascending. Two empty
	// sets have Jaccard similarity 1 (the strsim convention), so empty
	// records pair with each other regardless of θ; they never pair with
	// non-empty records (similarity 0 < θ).
	empty []int32
}

// minOverlap returns the smallest integer o with float64(o) >= theta*float64(l)
// — the least intersection size any pair involving a size-l set needs under
// the verification predicate (inter >= theta*union >= theta*l). The loop
// lift makes the ceiling exact under the same floating-point operations the
// verifier uses, so prefix pruning can never drop a qualifying pair.
func minOverlap(theta float64, l int) int {
	o := int(theta * float64(l))
	for float64(o) < theta*float64(l) {
		o++
	}
	if o > l {
		o = l
	}
	if o < 1 {
		o = 1
	}
	return o
}

// countTokens tallies token frequencies over a slice of signatures; stages
// run it per partition and the driver merges the partials.
func countTokens(sigs [][]uint32) map[uint32]int64 {
	counts := make(map[uint32]int64)
	for _, s := range sigs {
		for _, t := range s {
			counts[t]++
		}
	}
	return counts
}

// mergeCounts folds src into dst.
func mergeCounts(dst, src map[uint32]int64) {
	for t, c := range src {
		dst[t] += c
	}
}

// rankTokens assigns each distinct token its frequency rank: ascending
// global count, ties broken by token ID so the ordering is total and
// deterministic.
func rankTokens(counts map[uint32]int64) map[uint32]uint32 {
	toks := make([]uint32, 0, len(counts))
	for t := range counts {
		toks = append(toks, t)
	}
	sort.Slice(toks, func(i, j int) bool {
		if counts[toks[i]] != counts[toks[j]] {
			return counts[toks[i]] < counts[toks[j]]
		}
		return toks[i] < toks[j]
	})
	ranks := make(map[uint32]uint32, len(toks))
	for r, t := range toks {
		ranks[t] = uint32(r)
	}
	return ranks
}

// rankTransform maps one signature into rank space, sorted ascending
// (rarest first). The input is a set, the rank map a bijection, so the
// output is a set of the same size.
func rankTransform(sig []uint32, ranks map[uint32]uint32) []uint32 {
	if len(sig) == 0 {
		return nil
	}
	out := make([]uint32, len(sig))
	for i, t := range sig {
		out[i] = ranks[t]
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// assemblePlan builds the processing order, inverse positions, length table,
// and prefix lengths from the rank-space signatures.
func assemblePlan(ordered [][]uint32, theta float64) *plan {
	pl := &plan{theta: theta, ordered: ordered}
	n := len(ordered)
	pl.pos = make([]int32, n)
	pl.prefixLen = make([]int32, n)
	for id, sig := range ordered {
		if len(sig) == 0 {
			pl.pos[id] = -1
			pl.empty = append(pl.empty, int32(id))
			continue
		}
		pl.order = append(pl.order, int32(id))
		pl.prefixLen[id] = int32(len(sig) - minOverlap(theta, len(sig)) + 1)
	}
	sort.Slice(pl.order, func(i, j int) bool {
		a, b := pl.order[i], pl.order[j]
		if len(ordered[a]) != len(ordered[b]) {
			return len(ordered[a]) < len(ordered[b])
		}
		return a < b
	})
	pl.lens = make([]int32, len(pl.order))
	for p, id := range pl.order {
		pl.pos[id] = int32(p)
		pl.lens[p] = int32(len(ordered[id]))
	}
	return pl
}

// buildPlan is the sequential composition of the stage computations —
// identical output to the engine-staged path; tests and the fuzz target
// exercise it directly.
func buildPlan(sigs [][]uint32, theta float64) *plan {
	ranks := rankTokens(countTokens(sigs))
	ordered := make([][]uint32, len(sigs))
	for i, s := range sigs {
		ordered[i] = rankTransform(s, ranks)
	}
	return assemblePlan(ordered, theta)
}

// prefix returns record id's indexed prefix in rank space.
func (pl *plan) prefix(id int32) []uint32 {
	return pl.ordered[id][:pl.prefixLen[id]]
}

// lengthAdmissible reports whether set sizes la and lb pass the Jaccard
// length bound for θ, under the exact verification predicate: a pair fails
// iff min < theta*max in float64, in which case the intersection can never
// reach theta*union. Equivalent to JaccardSimUpperBound(la, lb) >= theta up
// to division rounding; this multiplicative form matches the verifier
// exactly.
func (pl *plan) lengthAdmissible(la, lb int32) bool {
	lo, hi := la, lb
	if lo > hi {
		lo, hi = hi, lo
	}
	return float64(lo) >= pl.theta*float64(hi)
}

// postEntry is one inverted-index posting: the order position of a record
// whose prefix contains the token, plus the token's index within that
// prefix (which is also its index in the full rank-space signature — a
// prefix is a signature prefix). The index feeds the positional filter.
type postEntry struct {
	pos int32
	idx int32
}

// postings is an inverted index over prefix tokens: rank → postings of the
// records whose prefix contains that rank, ascending by position — and
// therefore ascending by set size too.
type postings map[uint32][]postEntry

// indexRange enters the prefixes of order positions [lo, hi) into idx.
func (pl *plan) indexRange(idx postings, lo, hi int) int64 {
	var entries int64
	for p := lo; p < hi; p++ {
		id := pl.order[p]
		for k, t := range pl.prefix(id) {
			idx[t] = append(idx[t], postEntry{pos: int32(p), idx: int32(k)})
			entries++
		}
	}
	return entries
}

// pairNeed returns the smallest intersection size that lets two sets of
// sizes la and lb reach theta, under the exact verification predicate
// (inter >= theta*(la+lb-inter) in float64) — the same loop-lifted ceiling
// strsim.JaccardSimAtLeast computes.
func pairNeed(theta float64, la, lb int) int {
	total := la + lb
	need := int(theta * float64(total) / (1 + theta))
	for float64(need) < theta*float64(total-need) {
		need++
	}
	return need
}

// probeEmit is called with a verified pair, a < b in record-ID order.
type probeEmit func(a, b int32)

// proberSet tells probeRecord which records count as probers, for the
// pair-emitted-exactly-once discipline (see probeRecord).
type proberSet func(id int32) bool

// probeScratch is per-task probe state, reused across probe records so the
// hot loop allocates nothing: count is indexed by candidate (order position
// for a plan, record id for an Index; 0 unseen, -1 positionally pruned, >0
// shared prefix tokens so far), touched lists the candidates to reset.
type probeScratch struct {
	count   []int32
	touched []int32
	// need is Index.probeRecord's pairNeed table for the current prober,
	// indexed by candidate length.
	need []int32
}

// needTable fills sc.need with pairNeed(theta, la, lr) for every candidate
// length la the length bound admits against a prober of lr tokens, longest
// being the longest signature there is, and returns those lengths as the
// range [minLen, maxLen]: a probe tests the length bound on two integers and
// looks the need up per candidate instead of redoing the float arithmetic,
// and there are far fewer admissible lengths than candidates.
// strsim.JaccardSimAtLeast also rejects on the length ratio computed by
// division, which can disagree with the multiplicative bound at a rounding
// tie; a length it rejects that way gets a need no pair of those sizes can
// reach, so a probe accepts exactly the pairs the verifier accepts.
func (sc *probeScratch) needTable(theta float64, lr, longest int) (need []int32, minLen, maxLen int) {
	if longest >= len(sc.need) {
		sc.need = make([]int32, longest+1)
	}
	minLen = minOverlap(theta, lr)
	maxLen = minLen - 1
	for la := minLen; la <= longest && float64(lr) >= theta*float64(la); la++ {
		n := pairNeed(theta, la, lr)
		if strsim.JaccardSimUpperBound(la, lr) < theta {
			n = min(la, lr) + 1
		}
		sc.need[la] = int32(n)
		maxLen = la
	}
	return sc.need, minLen, maxLen
}

func (pl *plan) newProbeScratch() *probeScratch {
	return &probeScratch{count: make([]int32, len(pl.order))}
}

// probeRecord scans record rid's prefix tokens against idx and emits every
// verified pair exactly once. Candidates are accumulated AllPairs-style: the
// first shared prefix token registers the counterpart in the scratch table,
// later shared tokens only bump its count, and each surviving candidate is
// verified exactly once after the scan — so multiple shared tokens cannot
// duplicate a pair and cost O(1) apiece. When the counterpart is itself a
// prober, only the record at the later processing position emits, breaking
// the two-prober symmetry; counterparts that never probe (records already in
// the database during an incremental Detect) are emitted unconditionally by
// the prober.
//
// Posting lists ascend by set size, so each scan starts at the first
// admissible length (binary search) and breaks at the last. At the pair's
// first common token the positional filter (PPJoin) applies: all common
// tokens of the pair sit at or after the first common token's positions
// (anything smaller in both prefixes would itself be a first common prefix
// token), so the intersection is at most 1 + min of the remaining suffix
// lengths; pairs whose bound misses the required overlap are pruned without
// verification.
func (pl *plan) probeRecord(idx postings, rid int32, isProber proberSet, sc *probeScratch, st *Stats, emit probeEmit) {
	pr := pl.pos[rid]
	sig := pl.ordered[rid]
	lr := int32(len(sig))
	minLen := int32(minOverlap(pl.theta, int(lr)))
	for i, t := range pl.prefix(rid) {
		list := idx[t]
		lo := sort.Search(len(list), func(k int) bool { return pl.lens[list[k].pos] >= minLen })
		for _, e := range list[lo:] {
			pa := e.pos
			la := pl.lens[pa]
			if float64(lr) < pl.theta*float64(la) {
				break // longer entries only get worse
			}
			aid := pl.order[pa]
			if aid == rid {
				continue
			}
			if isProber(aid) && pa >= pr {
				continue // the later-position prober owns the pair
			}
			st.Scanned++
			switch c := sc.count[pa]; c {
			case -1:
				// Already pruned at its first common token.
			case 0:
				suffix := int(lr) - i - 1
				if s := int(la) - int(e.idx) - 1; s < suffix {
					suffix = s
				}
				if 1+suffix < pairNeed(pl.theta, int(la), int(lr)) {
					sc.count[pa] = -1 // positional filter: can't reach theta
				} else {
					sc.count[pa] = 1
				}
				sc.touched = append(sc.touched, pa)
			default:
				sc.count[pa] = c + 1
			}
		}
	}
	for _, pa := range sc.touched {
		if sc.count[pa] > 0 {
			st.Verified++
			if aid := pl.order[pa]; strsim.JaccardSimAtLeast(pl.ordered[aid], sig, pl.theta) {
				a, b := aid, rid
				if a > b {
					a, b = b, a
				}
				emit(a, b)
			}
		}
		sc.count[pa] = 0
	}
	sc.touched = sc.touched[:0]
}

// probeBlockPair handles one 2-D task: pairs between order-position blocks
// [iLo,iHi) and [jLo,jHi) (identical ranges for a diagonal task). The block
// ranges partition the unordered pair space, so tasks never overlap; inside
// a task the first-common-prefix-token rule plus the position ordering keep
// each pair unique. admit filters emission (the incremental Detect keeps
// only pairs touching the new batch).
func (pl *plan) probeBlockPair(iLo, iHi, jLo, jHi int, admit func(a, b int32) bool, st *Stats, emit probeEmit) {
	idx := make(postings)
	st.IndexEntries += pl.indexRange(idx, iLo, iHi)
	diagonal := iLo == jLo && iHi == jHi
	sc := pl.newProbeScratch()
	for p := jLo; p < jHi; p++ {
		rid := pl.order[p]
		// Every record of block j probes; cross-block dedup comes free
		// from block disjointness, diagonal dedup from the position rule
		// (probers only look at earlier positions, which indexRange has
		// fully entered for the diagonal's own block).
		isProber := func(aid int32) bool { return diagonal }
		pl.probeRecord(idx, rid, isProber, sc, st, func(a, b int32) {
			if admit(a, b) {
				emit(a, b)
			}
		})
	}
}
