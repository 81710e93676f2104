package candgen

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"adrdedup/internal/cluster"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
	"adrdedup/internal/strsim"
)

// Index is the persistent, append-only prefix-filtered inverted index: it
// keeps every record's rank-space signature and prefix postings across calls,
// so checking an arriving batch against the database (Eq. 3) costs work
// proportional to the batch, not to the database.
//
// Exactness needs only that all signatures are sorted under one fixed total
// token order; that the order is ascending frequency is what keeps posting
// lists short, not what makes the filter correct. So the order is frozen
// between rebuilds: a token keeps the rank it had at the last rebuild, and a
// token first seen since then takes the next rank *below* every rank handed
// out so far — rarer than every frozen token, which is the right guess for a
// token absent from the whole database at the last rebuild. Append re-ranks
// by current frequency and re-indexes everything only when the record count
// has doubled since the last rebuild, so rebuild cost amortises to O(1) per
// record.
//
// The pair set Probe emits is exactly the brute-force >= theta set whatever
// the history of Append and Truncate calls. The work counters (Stats.Scanned,
// Verified, IndexEntries) do depend on the history, because the ranks in
// force depend on when rebuilds happened and on which tokens arrived first;
// they are a pure function of that history (rebuild ties are broken on the
// previous rank, never on map order).
//
// An Index is driven from one goroutine; its probe tasks only read it.
type Index struct {
	theta float64

	// ranks maps a token to its rank. Ranks at and above frozenBase were
	// assigned by the last rebuild in ascending frequency order; ranks
	// below it were assigned since, counting down from frozenBase-1 in
	// order of first appearance.
	ranks   map[uint32]uint32
	frozen  uint32 // number of ranks the last rebuild assigned
	nextNew uint32 // rank the next first-seen token takes

	// toks holds the rank-space signatures back to back, each sorted
	// ascending (rarest first); record id is toks[off[id]:off[id+1]].
	toks []uint32
	off  []int
	// cuts[l] says where a signature of l tokens is split between the mid
	// and tail lists. It covers every size up to the longest signature ever
	// appended, an upper bound on every stored size, which is all probes
	// need.
	cuts []cut
	// bm holds one bitmapWords-word hashed bitmap per record, back to back:
	// bit bitmapBit(t) is set for every token t of the record. It is keyed
	// on token IDs, not ranks — ranks change at every rebuild, IDs never do,
	// and the rank map is a bijection, so the bitmap of a record's ID set
	// bounds overlaps of its rank set just as well. Append writes it once;
	// rebuild never touches it.
	bm []uint64
	// mid and tail map a rank to the records whose prefix contains it: mid
	// those that hold it among their first cut.mid tokens, tail those that
	// hold it further on in their prefix. Each list is grouped by record
	// size, groups ascending by size and each group in arrival order
	// (ascending id), so a probe reads only the sizes that can pair at its
	// position (see probeRecord). empty lists the records with empty
	// signatures.
	mid, tail map[uint32][]group
	empty     []int32

	rebuiltAt int   // Len() at the last rebuild
	rebuilds  int   // rebuilds so far; tests assert schedules cross several
	entered   int64 // postings entered since the last Probe
}

// posting is one inverted-index entry: a record whose prefix contains the
// token and the token's index within that record's signature (which feeds
// the positional filter). The record's size is its group's.
type posting struct {
	id, idx int32
}

// group is the run of one posting list's entries whose records have size
// tokens, in arrival order. Its entries are a slice of their own (full
// capacity when carved from a rebuild's arena), so appending to one group
// never writes into another.
type group struct {
	size int32
	ents []posting
}

// groupOf returns where the group of records of size l sits in the list gs
// (ascending by size), and whether it is there. It is slices.BinarySearchFunc
// written out: the generic form copies a group per comparison.
func groupOf(gs []group, l int32) (int, bool) {
	lo, hi := 0, len(gs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if gs[m].size < l {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(gs) && gs[lo].size == l
}

// postingBytes is what one posting costs to ship to a probe task.
const postingBytes = int64(unsafe.Sizeof(posting{}))

// cut is how a signature of l tokens is indexed: its first mid tokens go to
// the mid lists and the rest of its first pre tokens, its probing prefix, to
// the tail lists. pre = l - minOverlap(l) + 1 is the prefix any partner of
// any size needs; mid = l - pairNeed(l, l) + 1 is the shorter prefix that
// suffices against partners at least as long (see probeRecord).
type cut struct {
	mid, pre int32
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

// bitmapWords is the width of a record's hashed bitmap in 64-bit words: 256
// bits, 32 bytes per record. Signatures at the daemon's workloads hold a few
// dozen tokens, so most bits of a symmetric difference survive hashing.
const bitmapWords = 4

// bitmapBit hashes a token ID to its bit in a record bitmap (Fibonacci
// hashing: interned IDs are dense small integers, the top byte of the product
// spreads them).
func bitmapBit(t uint32) uint32 { return t * 0x9E3779B1 >> 24 }

// overlapBound bounds |A∩B| from above for two records of la and lb tokens
// with bitmaps a and b: a bit set in exactly one bitmap is owed to a token in
// exactly one of the sets, and distinct bits to distinct tokens, so
// popcount(a⊕b) <= |A△B| = la + lb - 2|A∩B|. A bit both sets hash to hides
// differences, never invents one: the bound can only over-count the overlap,
// so a pair it rules out is a pair the merge scan would reject.
func overlapBound(a, b []uint64, la, lb int) int {
	diff := 0
	for w := 0; w < bitmapWords; w++ {
		diff += bits.OnesCount64(a[w] ^ b[w])
	}
	return (la + lb - diff) / 2
}

// frozenBase is the lowest rank a rebuild assigns. Tokens first seen between
// rebuilds count down from just below it, so both ranges have 2^31 ranks —
// as many as there are record IDs.
const frozenBase = uint32(1) << 31

// NewIndex creates an empty index for signature similarity threshold theta,
// which must be in (0, 1].
func NewIndex(theta float64) (*Index, error) {
	if err := (Params{Theta: theta}).validate(); err != nil {
		return nil, err
	}
	return &Index{
		theta:   theta,
		ranks:   make(map[uint32]uint32),
		nextNew: frozenBase - 1,
		off:     []int{0},
		cuts:    []cut{{}},
		mid:     make(map[uint32][]group),
		tail:    make(map[uint32][]group),
	}, nil
}

// Len returns the number of records indexed.
func (ix *Index) Len() int { return len(ix.off) - 1 }

func (ix *Index) sig(id int32) []uint32 { return ix.toks[ix.off[id]:ix.off[id+1]] }

func (ix *Index) bitmap(id int32) []uint64 {
	return ix.bm[int(id)*bitmapWords : (int(id)+1)*bitmapWords]
}

// Append indexes sigs (sorted, deduplicated token-ID sets, as Signatures
// returns them) as records Len(), Len()+1, ... If the record count has then
// at least doubled since the last rebuild, every token is re-ranked by its
// current frequency and the whole index rebuilt.
func (ix *Index) Append(sigs [][]uint32) {
	if len(sigs) == 0 {
		return
	}
	rebuild := ix.Len()+len(sigs) >= 2*ix.rebuiltAt
	for _, sig := range sigs {
		start := len(ix.toks)
		var bm [bitmapWords]uint64
		for _, t := range sig {
			bit := bitmapBit(t)
			bm[bit>>6] |= 1 << (bit & 63)
			r, ok := ix.ranks[t]
			if !ok {
				r = ix.nextNew
				ix.nextNew--
				ix.ranks[t] = r
			}
			ix.toks = append(ix.toks, r)
		}
		slices.Sort(ix.toks[start:])
		ix.off = append(ix.off, len(ix.toks))
		for l := len(ix.cuts); l <= len(sig); l++ {
			ix.cuts = append(ix.cuts, cut{
				mid: int32(l - pairNeed(ix.theta, l, l) + 1),
				pre: int32(l - minOverlap(ix.theta, l) + 1),
			})
		}
		ix.bm = append(ix.bm, bm[:]...)
		if !rebuild {
			ix.enter(int32(ix.Len() - 1))
		}
	}
	if rebuild {
		ix.rebuild()
	}
}

// enter adds record id's prefix postings (or lists it as empty): the first
// cut.mid of them to the mid lists, the rest to the tail lists.
func (ix *Index) enter(id int32) {
	sig := ix.sig(id)
	if len(sig) == 0 {
		ix.empty = append(ix.empty, id)
		return
	}
	l := int32(len(sig))
	c := ix.cuts[l]
	for k, r := range sig[:c.pre] {
		m := ix.postings(c, k)
		gs := m[r]
		if g, ok := groupOf(gs, l); ok {
			gs[g].ents = append(gs[g].ents, posting{id: id, idx: int32(k)})
		} else {
			m[r] = slices.Insert(gs, g, group{size: l, ents: []posting{{id: id, idx: int32(k)}}})
		}
	}
	ix.entered += int64(c.pre)
}

// postings returns the lists a signature cut at c is posted to at prefix
// position k.
func (ix *Index) postings(c cut, k int) map[uint32][]group {
	if int32(k) < c.mid {
		return ix.mid
	}
	return ix.tail
}

// rebuild re-ranks every token by ascending current frequency — ties on the
// previous rank, so the outcome is a function of the index contents alone —
// then re-sorts every signature and re-enters every prefix. Tokens that no
// longer occur (they arrived only in truncated records) lose their rank.
func (ix *Index) rebuild() {
	lo := ix.nextNew + 1
	counts := make([]int64, frozenBase+ix.frozen-lo)
	for _, r := range ix.toks {
		counts[r-lo]++
	}
	order := make([]uint32, 0, len(counts))
	for i, c := range counts {
		if c > 0 {
			order = append(order, uint32(i))
		}
	}
	slices.SortFunc(order, func(a, b uint32) int {
		if c := cmp.Compare(counts[a], counts[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	remap := make([]uint32, len(counts))
	for i, old := range order {
		remap[old] = frozenBase + uint32(i)
	}
	for t, r := range ix.ranks {
		if counts[r-lo] == 0 {
			delete(ix.ranks, t)
		} else {
			ix.ranks[t] = remap[r-lo]
		}
	}
	for i, r := range ix.toks {
		ix.toks[i] = remap[r-lo]
	}
	ix.frozen = uint32(len(order))
	ix.nextNew = frozenBase - 1
	for id := int32(0); int(id) < ix.Len(); id++ {
		slices.Sort(ix.sig(id))
	}
	ix.regroup()
	ix.rebuiltAt = ix.Len()
	ix.rebuilds++
}

// regroup re-enters every record's prefix postings after a rebuild, when
// the ranks in force are exactly frozenBase .. frozenBase+frozen-1, so a
// list is known by an array index instead of a map lookup: mid list j and
// tail list frozen+j hold rank frozenBase+j. Walked in ascending (size, id)
// order, the records reach every list in its final order, groups ascending
// by size and ids ascending inside each, so the lists are built with no
// search and no insertion, in three walks: one counts each list's groups,
// one opens the groups and counts their entries, one fills them.
//
// Every group gets room for as many entries again as it holds: the record
// count doubles before the next rebuild, so appends fill the room about as
// the rebuild replaces it, instead of copying groups out and leaving their
// old entries behind. A list gains sizes more slowly than its groups gain
// entries, so it gets room for half as many groups again. (On a
// 10,000-report index grown to 17,500, more room for either stays emptier
// than it saves, and less makes appends copy more than it saves.)
// All groups come from one arena and all entries from another, carved into
// full-capacity slices so that filling one group's room can never write
// into the next.
func (ix *Index) regroup() {
	v := int(ix.frozen)
	bySize := ix.recordsBySize()
	// opened[L] counts the groups of list L a walk has opened so far, and
	// last[L] is the size of the latest.
	opened, last := make([]int32, 2*v), make([]int32, 2*v)
	walk := func(visit func(L int, l, id, k int32)) {
		clear(opened)
		clear(last)
		for _, id := range bySize {
			sig := ix.sig(id)
			l := int32(len(sig))
			c := ix.cuts[l]
			for k, r := range sig[:c.pre] {
				L := int(r - frozenBase)
				if int32(k) >= c.mid {
					L += v
				}
				if last[L] != l {
					last[L] = l
					opened[L]++
				}
				visit(L, l, id, int32(k))
			}
		}
	}
	walk(func(int, int32, int32, int32) {})
	// List L's groups start at first[L] in the group arena, followed by
	// their room.
	room := func(n int32) int32 { return n + (n+1)/2 }
	first := make([]int32, 2*v)
	var nGroups int32
	for L, n := range opened {
		first[L], nGroups = nGroups, nGroups+room(n)
	}
	groupArena, lens := make([]group, nGroups), make([]int32, nGroups)
	var nEnts int32
	walk(func(L int, l, _, _ int32) {
		g := first[L] + opened[L] - 1
		groupArena[g].size = l
		lens[g]++
		nEnts++
	})
	ix.entered += int64(nEnts)
	entArena := make([]posting, 2*nEnts)
	var at int32
	for g, n := range lens {
		groupArena[g].ents = entArena[at : at : at+2*n]
		at += 2 * n
	}
	walk(func(L int, _, id, k int32) {
		gp := &groupArena[first[L]+opened[L]-1]
		gp.ents = append(gp.ents, posting{id: id, idx: k})
	})
	// Nearly every token sits in some record's mid prefix; only commoner
	// ones reach a tail (a few percent of the tokens at θ 0.5, a quarter at
	// θ 0.8), so the tail map grows as needed.
	ix.mid = make(map[uint32][]group, v)
	ix.tail = make(map[uint32][]group)
	for L, n := range opened {
		if n > 0 {
			m := ix.mid
			if L >= v {
				m = ix.tail
			}
			m[frozenBase+uint32(L%v)] = groupArena[first[L] : first[L]+n : first[L]+room(n)]
		}
	}
	ix.empty = ix.empty[:0]
	for _, id := range bySize {
		if ix.off[id] != ix.off[id+1] {
			break // sizes ascend: the empty records come first
		}
		ix.empty = append(ix.empty, id)
	}
}

// recordsBySize returns every record id in ascending (size, id) order, by a
// counting sort on size.
func (ix *Index) recordsBySize() []int32 {
	at := make([]int32, len(ix.cuts)+1)
	for id := 0; id < ix.Len(); id++ {
		at[ix.off[id+1]-ix.off[id]+1]++
	}
	for l := 1; l < len(at); l++ {
		at[l] += at[l-1]
	}
	out := make([]int32, ix.Len())
	for id := int32(0); int(id) < ix.Len(); id++ {
		l := len(ix.sig(id))
		out[at[l]] = id
		at[l]++
	}
	return out
}

// Truncate drops every record with id >= n together with its postings, in
// time proportional to what is dropped — the rollback for a batch whose
// Detect failed after Append. Ranks assigned or re-derived while the dropped
// records were present stay in force: any fixed order is exact, so the next
// probe emits the same pairs as an index those records never reached.
// Truncating beyond Len() is a no-op.
func (ix *Index) Truncate(n int) {
	if n < 0 {
		n = 0
	}
	if n >= ix.Len() {
		return
	}
	// Groups ascend by id, so the dropped records sit at the group ends;
	// popping newest-first keeps each pop at the very end.
	for id := int32(ix.Len() - 1); int(id) >= n; id-- {
		sig := ix.sig(id)
		if len(sig) == 0 {
			ix.empty = ix.empty[:len(ix.empty)-1]
			continue
		}
		l := int32(len(sig))
		c := ix.cuts[l]
		for k, r := range sig[:c.pre] {
			m := ix.postings(c, k)
			gs := m[r]
			g, _ := groupOf(gs, l)
			switch ents := gs[g].ents; {
			case len(ents) > 1:
				gs[g].ents = ents[:len(ents)-1]
			case len(gs) > 1:
				m[r] = slices.Delete(gs, g, g+1)
			default:
				delete(m, r)
			}
		}
	}
	ix.toks = ix.toks[:ix.off[n]]
	ix.off = ix.off[:n+1]
	ix.bm = ix.bm[:n*bitmapWords]
}

// Probe checks records [from, Len()) against every earlier record, as one
// engine stage of at most partitions tasks (0 = the engine's default
// parallelism), and returns the pairs whose signature Jaccard similarity
// reaches theta: exactly the brute-force >= theta pairs with at least one end
// in [from, Len()), sorted by (A, B) with A < B. Stats.IndexEntries counts
// the postings entered since the previous Probe.
func (ix *Index) Probe(ctx *rdd.Context, from, partitions int) ([]pairdist.IDPair, Stats, error) {
	lists, st, err := ProbeEach(ix, ctx, from, partitions, func(_ *cluster.TaskContext, pairs []pairdist.IDPair) ([]pairdist.IDPair, error) {
		// Sorted here, in parallel, so Probe only merges the task lists.
		slices.SortFunc(pairs, pairCmp)
		return pairs, nil
	})
	if err != nil || lists == nil { // failed, or nothing to probe
		return nil, st, err
	}
	return mergeSorted(lists, int(st.Emitted)), st, nil
}

// ProbeEach runs Probe's stage, except that each task hands the pairs it
// verified, in the order it found them, to f and returns what f makes of
// them: the caller's work on a pair runs in the task that found it, and the
// pairs never reach the driver. It returns f's results in task order and the
// probe's counters. f runs once per committed task, and again for each retry
// or speculative attempt; the pairs are its own to keep.
func ProbeEach[R any](ix *Index, ctx *rdd.Context, from, partitions int, f func(*cluster.TaskContext, []pairdist.IDPair) (R, error)) ([]R, Stats, error) {
	n := ix.Len()
	st := Stats{Records: n, EmptyRecords: len(ix.empty), IndexEntries: ix.entered}
	if from < 0 || from > n {
		return nil, st, fmt.Errorf("candgen: probe from %d outside [0, %d]", from, n)
	}
	ix.entered = 0
	if from == n {
		return nil, st, nil
	}
	probers := make([]int32, n-from)
	for i := range probers {
		probers[i] = int32(from + i)
	}
	if partitions <= 0 {
		partitions = ctx.DefaultParallelism()
	}
	if partitions > len(probers) {
		partitions = len(probers)
	}

	// What the probe tasks have not seen before: the new postings and the
	// arriving records' signatures.
	ctx.Cluster().Broadcast(st.IndexEntries*postingBytes + int64(len(ix.toks)-ix.off[from])*4)
	src := rdd.Parallelize(ctx, probers, partitions).SetName("probers").WithBytesPerRecord(4)
	// Each task returns f's result and its share of the counters. (Probe
	// tasks count no index entries; ProbeEach sets that counter.)
	results, err := rdd.MapPartitionsTC(src, func(tc *cluster.TaskContext, _ int, in []int32) ([]rdd.Tuple2[R, Stats], error) {
		// A record pairs only with earlier ones, so the last prober's id
		// bounds every candidate id of the partition, and so the candidates
		// one prober touches. The count table is the worker's zeroed table:
		// probeRecord resets every count it sets, so no task clears it. The
		// need table and the touched list share a second buffer: neither
		// outgrows its share, so the task allocates no scratch of its own.
		ids, longest := int(in[len(in)-1]), len(ix.cuts)-1
		ws := tc.Scratch()
		aux := ws.Int32s(longest + 1 + ids)
		sc := probeScratch{count: ws.ZeroedInt32s(ids), need: aux[:longest+1], touched: aux[longest+1 : longest+1]}
		var res taskResult
		for _, rid := range in {
			ix.probeRecord(rid, &sc, &res)
		}
		res.st.Emitted = int64(len(res.pairs))
		out, err := f(tc, res.pairs)
		return []rdd.Tuple2[R, Stats]{{A: out, B: res.st}}, err
	}).SetName("candgen.probeIndex").Collect()
	if err != nil {
		return nil, st, fmt.Errorf("candgen: probing prefix index: %w", err)
	}
	outs := make([]R, len(results))
	for i, r := range results {
		outs[i] = r.A
		st.Scanned += r.B.Scanned
		st.Verified += r.B.Verified
		st.BitmapPruned += r.B.BitmapPruned
		st.Emitted += r.B.Emitted
	}
	return outs, st, nil
}

// taskResult is what one probe task accumulates: its verified pairs and its
// share of the work counters.
type taskResult struct {
	pairs []pairdist.IDPair
	st    Stats
}

// mergeSorted merges lists, each sorted by (A, B), total pairs in all, into
// one sorted slice, allocated once. A probe has a task per partition, a
// handful, so the next pair is picked by scanning the list heads.
func mergeSorted(lists [][]pairdist.IDPair, total int) []pairdist.IDPair {
	lists = slices.DeleteFunc(lists, func(l []pairdist.IDPair) bool { return len(l) == 0 })
	pairs := make([]pairdist.IDPair, 0, total)
	for len(lists) > 1 {
		next := 0
		for t := 1; t < len(lists); t++ {
			if pairCmp(lists[t][0], lists[next][0]) < 0 {
				next = t
			}
		}
		pairs = append(pairs, lists[next][0])
		if lists[next] = lists[next][1:]; len(lists[next]) == 0 {
			lists = slices.Delete(lists, next, next+1)
		}
	}
	for _, l := range lists {
		pairs = append(pairs, l...)
	}
	return pairs
}

// probeScratch is per-task probe state, reused across probe records so the
// hot loop allocates nothing: count is indexed by candidate record id (0
// unseen, -1 positionally pruned, >0 shared prefix tokens so far) and is all
// zero between probers, touched lists the candidates to reset.
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

// probeRecord pairs record rid with every earlier record. Candidates are
// accumulated AllPairs-style: the first shared prefix token registers the
// candidate in the scratch table, where the positional filter (PPJoin) prunes
// it if the remaining suffixes cannot reach the required overlap, and later
// shared tokens only bump its count, so multiple shared tokens cannot
// duplicate a pair. After the scan each survivor first meets the bitmap bound
// (overlapBound), and only those it cannot rule out are verified, exactly
// once, by a merge scan that resumes past the prefixes (resumeVerify).
// Inside a size group postings are in arrival order, so "earlier" is a
// prefix of each group and every pair has exactly one prober, its newer
// record.
//
// Each pair is looked for only where it can be found. A candidate a of la
// tokens and the prober r of lr tokens that reach theta share at least
// o = pairNeed(la, lr) tokens, so (the prefix-filter lemma) their first
// common token c sits among a's first la-o+1 and r's first lr-o+1 tokens.
// pairNeed grows with the sizes and o <= min(la, lr), hence:
//   - la <= lr: o >= pairNeed(la, la) and o >= minOverlap(lr), so c is in
//     a's mid prefix and in r's probing prefix. r reads the mid lists, for
//     candidates with la <= lr, at every position of its prefix.
//   - la > lr: the same argument with the roles swapped puts c in a's
//     probing prefix (mid or tail) and in r's mid prefix. r reads both
//     lists, for candidates with la > lr, at its mid positions only.
//
// The same lemma also bounds r's side by the partner's size: c is among r's
// first lr-o+1 tokens, so at position i only the groups of sizes la with
// need(la, lr) <= lr-i can hold c, and scan reads no other group there. That
// bound, lr-need(la, lr)+1, is no greater than the probing prefix when
// la <= lr (need(la, lr) >= minOverlap(lr), as the union has at least lr
// tokens) nor than the mid prefix when la > lr (need grows with la), so it
// narrows both branches and never widens them.
//
// Either way the scan covers a rectangle, a[:ma] against r[:lr-need+1]
// (ma from prefixOf), in ascending order of r's position. c is in it and
// precedes every other common token in both sets, so the first entry met for
// a pair that reaches theta is c itself, which is all the positional filter
// needs; and count[a] ends as the number of common tokens inside the
// rectangle. A candidate that the window hides entirely is one whose first
// common token sits past it, which the positional filter would prune at that
// token anyway, so the verified and bitmap-pruned candidates are those of a
// scan without the window.
func (ix *Index) probeRecord(rid int32, sc *probeScratch, res *taskResult) {
	sig := ix.sig(rid)
	if len(sig) == 0 {
		// Empty signatures are mutually similar at 1 and match nothing else.
		for _, a := range ix.empty {
			if a >= rid {
				break
			}
			res.pairs = append(res.pairs, pairdist.IDPair{A: int(a), B: int(rid)})
		}
		return
	}
	lr := len(sig)
	need, minLen, maxLen := sc.needTable(ix.theta, lr, len(ix.cuts)-1)
	cr := ix.cuts[lr]
	for i, t := range sig[:cr.pre] {
		if int32(i) < cr.mid {
			res.st.Scanned += sc.scan(ix.mid[t], rid, i, lr, minLen, maxLen)
			res.st.Scanned += sc.scan(ix.tail[t], rid, i, lr, lr+1, maxLen)
		} else {
			res.st.Scanned += sc.scan(ix.mid[t], rid, i, lr, minLen, lr)
		}
	}
	bm := ix.bitmap(rid)
	for _, a := range sc.touched {
		if c := sc.count[a]; c > 0 {
			asig := ix.sig(a)
			la := len(asig)
			if overlapBound(ix.bitmap(a), bm, la, lr) < int(need[la]) {
				res.st.BitmapPruned++
			} else {
				res.st.Verified++
				n := int(need[la])
				if resumeVerify(asig, sig, ix.prefixOf(la, lr), lr-n+1, int(c), n) {
					res.pairs = append(res.pairs, pairdist.IDPair{A: int(a), B: int(rid)})
				}
			}
		}
		sc.count[a] = 0
	}
	sc.touched = sc.touched[:0]
}

// scan reads one posting list for prober rid, of lr tokens, at position i of
// its prefix: of the groups of lo..hi tokens, it reads those whose records
// can have their first common token with the prober at i, counts a hit on
// every earlier record there, applying the positional filter at a
// candidate's first hit, and returns how many entries it counted.
func (sc *probeScratch) scan(list []group, rid int32, i, lr, lo, hi int) (scanned int64) {
	count, need := sc.count, sc.need
	room := int32(lr - i)
	for _, g := range list {
		la := int(g.size)
		if la < lo {
			continue
		}
		if la > hi {
			break
		}
		n := need[la]
		if n > room {
			continue
		}
		for _, e := range g.ents {
			if e.id >= rid {
				break
			}
			scanned++
			switch c := count[e.id]; c {
			case -1:
				// Already pruned at its first common token.
			case 0:
				// The prober keeps room >= n tokens from i on, so only
				// the candidate's suffix can fall short.
				if int32(la)-e.idx < n {
					count[e.id] = -1
				} else {
					count[e.id] = 1
				}
				sc.touched = append(sc.touched, e.id)
			default:
				count[e.id] = c + 1
			}
		}
	}
	return scanned
}

// prefixOf returns how many of a candidate's la tokens the probe reads
// against a prober of lr tokens: its mid prefix for la <= lr, its probing
// prefix for la > lr (see probeRecord).
func (ix *Index) prefixOf(la, lr int) int {
	if la <= lr {
		return int(ix.cuts[la].mid)
	}
	return int(ix.cuts[la].pre)
}

// resumeVerify reports whether the sorted sets a and r share at least need
// tokens, given that count is the number of common tokens inside the
// rectangle a[:ma] × r[:mr] (ma, mr >= 1). A common token no greater than
// both a[ma-1] and r[mr-1] lies inside the rectangle, and every token inside
// it is no greater than both, so count is exactly the number of common tokens
// up to the smaller of the two; the merge resumes just past it in both sets
// and looks for the need - count still missing, with JaccardSimAtLeast's
// early-outs. need being the verifier's own pairNeed (and its length-ratio
// check folded into needTable), this accepts exactly what JaccardSimAtLeast
// accepts.
func resumeVerify(a, r []uint32, ma, mr, count, need int) bool {
	more := need - count
	if more <= 0 {
		return true
	}
	i, j := ma, mr
	if last := a[ma-1]; last <= r[mr-1] {
		j = past(r[:mr], last)
	} else {
		i = past(a[:ma], r[mr-1])
	}
	for i < len(a) && j < len(r) {
		if min(len(a)-i, len(r)-j) < more {
			return false
		}
		switch ai, rj := a[i], r[j]; {
		case ai == rj:
			if more--; more == 0 {
				return true
			}
			i++
			j++
		case ai < rj:
			i++
		default:
			j++
		}
	}
	return false
}

// past returns the index of the first element of the sorted s greater than t.
func past(s []uint32, t uint32) int {
	k, found := slices.BinarySearch(s, t)
	if found {
		k++
	}
	return k
}
