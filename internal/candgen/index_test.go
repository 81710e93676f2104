package candgen

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"adrdedup/internal/adrgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/intern"
	"adrdedup/internal/pairdist"
)

// probeSeq runs the probe kernel over records [from, Len()) on the calling
// goroutine — Probe without the engine, for the fuzz target and for pinning
// that the staged result does not depend on task boundaries.
func probeSeq(ix *Index, from int) ([]pairdist.IDPair, Stats) {
	var res taskResult
	sc := probeScratch{count: make([]int32, ix.Len())}
	for rid := from; rid < ix.Len(); rid++ {
		ix.probeRecord(int32(rid), &sc, &res)
	}
	res.st.Emitted = int64(len(res.pairs))
	return canonPairs(res.pairs), res.st
}

// sizedPosting is a posting that carries its record's size, as postings did
// before lists were grouped by size.
type sizedPosting struct {
	id, idx, size int32
}

// arrivalLists flattens grouped posting lists into arrival order (ascending
// id), each entry carrying its group's size.
func arrivalLists(m map[uint32][]group) map[uint32][]sizedPosting {
	out := make(map[uint32][]sizedPosting, len(m))
	for r, gs := range m {
		var list []sizedPosting
		for _, g := range gs {
			for _, e := range g.ents {
				list = append(list, sizedPosting{id: e.id, idx: e.idx, size: g.size})
			}
		}
		slices.SortFunc(list, func(a, b sizedPosting) int { return cmp.Compare(a.id, b.id) })
		out[r] = list
	}
	return out
}

// referenceProbe is probeSeq run by the probe the size groups replaced
// (referenceProbeRecord), over the index's postings flattened into arrival
// order: the exactness oracle for the per-position window. It must emit the
// same pairs and verify and bitmap-prune the same candidates, and it scans
// at least as many entries.
func referenceProbe(ix *Index, from int) ([]pairdist.IDPair, Stats) {
	mid, tail := arrivalLists(ix.mid), arrivalLists(ix.tail)
	var res taskResult
	sc := probeScratch{count: make([]int32, ix.Len())}
	for rid := from; rid < ix.Len(); rid++ {
		referenceProbeRecord(ix, mid, tail, int32(rid), &sc, &res)
	}
	res.st.Emitted = int64(len(res.pairs))
	return canonPairs(res.pairs), res.st
}

// referenceProbeRecord is probeRecord without the per-position window: it
// reads every entry of a list inside the length bound, checking the bound
// per entry on the size the entry carries, and verifies from the rectangle
// of the branch's prefixes, a[:ma] × r[:mr] (the candidate's mid prefix
// against the prober's probing prefix for la <= lr, the candidate's probing
// prefix against the prober's mid prefix for la > lr).
func referenceProbeRecord(ix *Index, mid, tail map[uint32][]sizedPosting, rid int32, sc *probeScratch, res *taskResult) {
	sig := ix.sig(rid)
	if len(sig) == 0 {
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
	scan := func(list []sizedPosting, i, lo, hi int) {
		for _, e := range list {
			if e.id >= rid {
				break
			}
			la := int(e.size)
			if la < lo || la > hi {
				continue
			}
			res.st.Scanned++
			switch c := sc.count[e.id]; c {
			case -1:
			case 0:
				if 1+min(lr-i-1, la-int(e.idx)-1) < int(need[la]) {
					sc.count[e.id] = -1
				} else {
					sc.count[e.id] = 1
				}
				sc.touched = append(sc.touched, e.id)
			default:
				sc.count[e.id] = c + 1
			}
		}
	}
	cr := ix.cuts[lr]
	for i, t := range sig[:cr.pre] {
		if int32(i) < cr.mid {
			scan(mid[t], i, minLen, maxLen)
			scan(tail[t], i, lr+1, maxLen)
		} else {
			scan(mid[t], i, minLen, lr)
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
				ma, mr := int(ix.cuts[la].mid), int(ix.cuts[lr].pre)
				if la > lr {
					ma, mr = int(ix.cuts[la].pre), int(ix.cuts[lr].mid)
				}
				if resumeVerify(asig, sig, ma, mr, int(c), int(need[la])) {
					res.pairs = append(res.pairs, pairdist.IDPair{A: int(a), B: int(rid)})
				}
			}
		}
		sc.count[a] = 0
	}
	sc.touched = sc.touched[:0]
}

// checkAgainstReference asserts that the probe of records [from, Len())
// emits the reference probe's pairs with its Verified, BitmapPruned and
// Emitted counters, scanning no more entries, and returns both Stats.
func checkAgainstReference(t testing.TB, ix *Index, from int) (got, ref Stats) {
	t.Helper()
	pairs, got := probeSeq(ix, from)
	refPairs, ref := referenceProbe(ix, from)
	if !reflect.DeepEqual(pairs, refPairs) {
		t.Fatalf("probe from %d emitted %d pairs, the reference probe %d\n got: %v\nwant: %v", from, len(pairs), len(refPairs), pairs, refPairs)
	}
	if got.Verified != ref.Verified || got.BitmapPruned != ref.BitmapPruned || got.Emitted != ref.Emitted {
		t.Fatalf("probe from %d: %d verified, %d bitmap-pruned, %d emitted; the reference probe %d, %d, %d",
			from, got.Verified, got.BitmapPruned, got.Emitted, ref.Verified, ref.BitmapPruned, ref.Emitted)
	}
	if got.Scanned > ref.Scanned {
		t.Fatalf("probe from %d scanned %d entries, more than the reference probe's %d", from, got.Scanned, ref.Scanned)
	}
	return got, ref
}

// indexState is what Truncate promises to restore when no rebuild happened
// in between: signatures, bitmaps, postings and the empty list. The rank map
// is not part of it (ranks handed to tokens of dropped records stay assigned).
type indexState struct {
	toks  []uint32
	off   []int
	bm    []uint64
	mid   map[uint32][]group
	tail  map[uint32][]group
	empty []int32
}

func snapshotState(ix *Index) indexState {
	st := indexState{
		toks:  slices.Clone(ix.toks),
		off:   slices.Clone(ix.off),
		bm:    slices.Clone(ix.bm),
		mid:   cloneLists(ix.mid),
		tail:  cloneLists(ix.tail),
		empty: slices.Clone(ix.empty),
	}
	return st
}

func cloneLists(m map[uint32][]group) map[uint32][]group {
	out := make(map[uint32][]group, len(m))
	for r, gs := range m {
		gs = slices.Clone(gs)
		for g := range gs {
			gs[g].ents = slices.Clone(gs[g].ents)
		}
		out[r] = gs
	}
	return out
}

func (a indexState) equal(b indexState) bool {
	return slices.Equal(a.toks, b.toks) && slices.Equal(a.off, b.off) && slices.Equal(a.bm, b.bm) &&
		slices.Equal(a.empty, b.empty) && reflect.DeepEqual(a.mid, b.mid) && reflect.DeepEqual(a.tail, b.tail)
}

// checkIndexInvariants asserts the structural contract of the index: every
// signature strictly ascending in rank space, every non-empty record posted
// under exactly its prefix tokens with the right positions and its size, its
// first l - pairNeed(l, l) + 1 postings in the mid lists and the rest of its
// l - minOverlap(l) + 1 in the tail lists, every list grouped by size with
// its groups ascending by size, none empty and ids ascending inside each, no
// empty lists left behind, one bitmap per record.
func checkIndexInvariants(t testing.TB, ix *Index) {
	t.Helper()
	if len(ix.bm) != ix.Len()*bitmapWords {
		t.Fatalf("%d bitmap words for %d records", len(ix.bm), ix.Len())
	}
	for _, m := range []map[uint32][]group{ix.mid, ix.tail} {
		for r, gs := range m {
			if len(gs) == 0 {
				t.Fatalf("rank %d: empty list left behind", r)
			}
			for g, grp := range gs {
				if g > 0 && gs[g-1].size >= grp.size {
					t.Fatalf("rank %d: group of size %d follows one of size %d", r, grp.size, gs[g-1].size)
				}
				if len(grp.ents) == 0 {
					t.Fatalf("rank %d: empty group of size %d", r, grp.size)
				}
				for e := 1; e < len(grp.ents); e++ {
					if grp.ents[e-1].id >= grp.ents[e].id {
						t.Fatalf("rank %d: ids not strictly ascending in the group of size %d: %v", r, grp.size, grp.ents)
					}
				}
			}
		}
	}
	wantMid, wantTail := make(map[uint32][]sizedPosting), make(map[uint32][]sizedPosting)
	var empty []int32
	for id := int32(0); int(id) < ix.Len(); id++ {
		sig := ix.sig(id)
		if len(sig) == 0 {
			empty = append(empty, id)
			continue
		}
		for i := 1; i < len(sig); i++ {
			if sig[i-1] >= sig[i] {
				t.Fatalf("record %d: rank-space signature not strictly ascending: %v", id, sig)
			}
		}
		l := len(sig)
		mid, pre := l-pairNeed(ix.theta, l, l)+1, l-minOverlap(ix.theta, l)+1
		if mid < 1 || mid > pre {
			t.Fatalf("record %d of %d tokens: mid prefix %d outside [1, %d]", id, l, mid, pre)
		}
		for k, r := range sig[:pre] {
			e := sizedPosting{id: id, idx: int32(k), size: int32(l)}
			if k < mid {
				wantMid[r] = append(wantMid[r], e)
			} else {
				wantTail[r] = append(wantTail[r], e)
			}
		}
	}
	if mid := arrivalLists(ix.mid); !reflect.DeepEqual(mid, wantMid) {
		t.Fatalf("mid postings differ from a from-scratch index over the stored signatures:\n got %v\nwant %v", mid, wantMid)
	}
	if tail := arrivalLists(ix.tail); !reflect.DeepEqual(tail, wantTail) {
		t.Fatalf("tail postings differ from a from-scratch index over the stored signatures:\n got %v\nwant %v", tail, wantTail)
	}
	if !slices.Equal(ix.empty, empty) {
		t.Fatalf("empty list %v, want %v", ix.empty, empty)
	}
}

// checkBitmaps asserts that record i's bitmap is exactly the hashed image of
// sigs[i]'s token IDs — whatever rebuilds and rollbacks the index has been
// through since the record was appended.
func checkBitmaps(t testing.TB, ix *Index, sigs [][]uint32) {
	t.Helper()
	if ix.Len() != len(sigs) {
		t.Fatalf("index holds %d records, want %d", ix.Len(), len(sigs))
	}
	for id, sig := range sigs {
		var want [bitmapWords]uint64
		for _, tok := range sig {
			bit := bitmapBit(tok)
			want[bit/64] |= 1 << (bit % 64)
		}
		if got := ix.bitmap(int32(id)); !slices.Equal(got, want[:]) {
			t.Fatalf("record %d: bitmap %x, want %x for tokens %v", id, got, want, sig)
		}
	}
}

// TestIndexDifferential is the exactness gate for the persistent index:
// random corpora (empty and duplicated signatures included) are fed in random
// batch sizes, with failed batches — Append then Truncate — interleaved, and
// at every step the staged Probe must emit exactly the pair set of the
// brute-force oracle, the from-scratch naive oracle, Pairs with MinArrival at
// the batch start (a fresh index that took every record so far in one Append,
// a different history from the incremental one), and the sequential kernel.
// Every run crosses
// the initial build plus at least two doubling rebuilds, and the record
// bitmaps must come through all of it bit-exact — with the bitmap bound
// having ruled candidates out along the way, or the pair sets prove nothing
// about it.
func TestIndexDifferential(t *testing.T) {
	var bitmapPruned int64
	for seed := int64(1); seed <= 5; seed++ {
		for _, theta := range []float64{0.3, 0.5, 0.8, 1.0} {
			rng := rand.New(rand.NewSource(seed*31 + int64(theta*100)))
			n := 120 + rng.Intn(100)
			sigs := randomCorpus(rng, n, 400)
			junk := randomCorpus(rng, 40, 600) // tokens 400..599 occur only in failed batches
			name := fmt.Sprintf("seed%d/θ=%v", seed, theta)

			ix, err := NewIndex(theta)
			if err != nil {
				t.Fatal(err)
			}
			var union []pairdist.IDPair
			failed := 0
			for from := 0; from < n; {
				size := 1 + rng.Intn(12)
				if from+size > n {
					size = n - from
				}
				if rng.Intn(3) == 0 {
					// A batch whose Detect fails: it reaches the index, is
					// probed, and is rolled back.
					before, rebuilds := snapshotState(ix), ix.rebuilds
					lo := rng.Intn(len(junk))
					ix.Append(junk[lo:min(lo+1+rng.Intn(8), len(junk))])
					if _, _, err := ix.Probe(testEngine(0), from, 2); err != nil {
						t.Fatalf("%s: probing a doomed batch: %v", name, err)
					}
					ix.Truncate(from)
					failed++
					if ix.Len() != from {
						t.Fatalf("%s: Truncate(%d) left %d records", name, from, ix.Len())
					}
					if ix.rebuilds == rebuilds && !snapshotState(ix).equal(before) {
						t.Fatalf("%s: Append+Truncate at %d without a rebuild did not restore the index", name, from)
					}
					checkIndexInvariants(t, ix)
				}
				ix.Append(sigs[from : from+size])
				checkIndexInvariants(t, ix)
				total := from + size
				checkBitmaps(t, ix, sigs[:total])

				got, st, err := ix.Probe(testEngine(0.3*float64(seed%2)), from, 1+rng.Intn(4))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !slices.IsSortedFunc(got, pairCmp) {
					t.Errorf("%s: Probe output not in (A, B) order", name)
				}
				want := canonPairs(naivePairs(sigs[:total], theta, from))
				if !reflect.DeepEqual(canonPairs(got), want) {
					t.Fatalf("%s from %d: Probe emitted %d pairs, naive oracle %d\n got: %v\nwant: %v",
						name, from, len(got), len(want), got, want)
				}
				if brute := canonPairs(BruteForcePairs(sigs[:total], theta, from)); !reflect.DeepEqual(brute, want) {
					t.Fatalf("%s from %d: BruteForcePairs diverges from the naive oracle", name, from)
				}
				whole, _, err := Pairs(testEngine(0), sigs[:total], Params{Theta: theta, Partitions: 3, MinArrival: from})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(canonPairs(whole), want) {
					t.Fatalf("%s from %d: an index built by one whole-corpus Append diverges from the naive oracle", name, from)
				}
				seq, seqSt := probeSeq(ix, from)
				if !reflect.DeepEqual(seq, want) {
					t.Fatalf("%s from %d: sequential kernel diverges from the naive oracle", name, from)
				}
				checkAgainstReference(t, ix, from)
				if st.Scanned != seqSt.Scanned || st.Verified != seqSt.Verified || st.BitmapPruned != seqSt.BitmapPruned {
					t.Errorf("%s from %d: staged counters (%d scanned, %d verified, %d bitmap-pruned) differ from sequential (%d, %d, %d)",
						name, from, st.Scanned, st.Verified, st.BitmapPruned, seqSt.Scanned, seqSt.Verified, seqSt.BitmapPruned)
				}
				bitmapPruned += st.BitmapPruned
				if st.Emitted != int64(len(got)) || st.Records != total {
					t.Errorf("%s from %d: Stats %+v for %d pairs over %d records", name, from, st, len(got), total)
				}
				if st.Scanned < st.Verified+st.BitmapPruned {
					t.Errorf("%s from %d: verified and bitmap-pruned more than scanned: %+v", name, from, st)
				}
				union = append(union, got...)
				from = total
			}
			if ix.rebuilds < 3 {
				t.Errorf("%s: %d rebuilds; the run must cross the first build and two doublings", name, ix.rebuilds)
			}
			if failed == 0 {
				t.Errorf("%s: no failed batch was interleaved", name)
			}
			// Pair sets are independent of the append history: the union over
			// all batches is the whole corpus' pair set, which is also what
			// one Append of everything emits.
			all := canonPairs(naivePairs(sigs, theta, 0))
			if !reflect.DeepEqual(canonPairs(union), all) {
				t.Fatalf("%s: union over batches has %d pairs, whole-corpus oracle %d", name, len(union), len(all))
			}
			whole, _ := NewIndex(theta)
			whole.Append(sigs)
			if one, _ := probeSeq(whole, 0); !reflect.DeepEqual(one, all) {
				t.Fatalf("%s: single-Append index emits %d pairs, oracle %d", name, len(one), len(all))
			}
		}
	}
	if bitmapPruned == 0 {
		t.Error("the bitmap bound never ruled a candidate out")
	}
}

// TestIndexStatsDeterministic pins the counters: the same append history run
// twice — once on a fault-injecting engine — reports bit-identical Stats at
// every probe, and a different batching of the same records reports the same
// pairs with (legitimately) different work counters.
func TestIndexStatsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sigs := randomCorpus(rng, 400, 3000)
	run := func(failureRate float64, batch int) ([]Stats, []pairdist.IDPair) {
		ix, err := NewIndex(0.5)
		if err != nil {
			t.Fatal(err)
		}
		var stats []Stats
		var union []pairdist.IDPair
		for from := 0; from < len(sigs); from += batch {
			ix.Append(sigs[from:min(from+batch, len(sigs))])
			pairs, st, err := ix.Probe(testEngine(failureRate), from, 3)
			if err != nil {
				t.Fatal(err)
			}
			stats = append(stats, st)
			union = append(union, pairs...)
		}
		return stats, canonPairs(union)
	}
	first, pairs := run(0, 7)
	again, _ := run(0.3, 7)
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("same history, different Stats:\n first %+v\n again %+v", first, again)
	}
	other, otherPairs := run(0, 50)
	if !reflect.DeepEqual(pairs, otherPairs) {
		t.Fatalf("batching changed the pair set: %d vs %d pairs", len(pairs), len(otherPairs))
	}
	sum := func(sts []Stats) (v int64) {
		for _, st := range sts {
			v += st.Verified
		}
		return v
	}
	if sum(first) == 0 || sum(other) == 0 {
		t.Fatal("no verifications; test would be vacuous")
	}
}

// TestProbeEachHandsEachTaskItsPairs pins the per-task hook under Probe: each
// task hands f the pairs of its own contiguous run of probers, in probe order
// (ascending newer record), and ProbeEach returns f's results in task order.
// Together they are exactly Probe's pairs, with Probe's Stats, on a clean and
// on a fault-injecting engine, and the stage commits one record per task
// whatever f does. An error from f fails the probe.
func TestProbeEachHandsEachTaskItsPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sigs := randomCorpus(rng, 300, 1500)
	const from, parts = 180, 12
	build := func() *Index {
		ix, err := NewIndex(0.4)
		if err != nil {
			t.Fatal(err)
		}
		ix.Append(sigs[:from])
		ix.Append(sigs[from:])
		return ix
	}
	want, wantSt, err := build().Probe(testEngine(0), from, parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no pairs; the test is vacuous")
	}
	for _, failureRate := range []float64{0, 0.3} {
		ctx := testEngine(failureRate)
		before := ctx.Cluster().Metrics().RecordsProcessed.Load()
		lists, st, err := ProbeEach(build(), ctx, from, parts, func(tc *cluster.TaskContext, pairs []pairdist.IDPair) ([]pairdist.IDPair, error) {
			tc.AddRecords(1000) // f's own records are f's business, not the probe's
			return pairs, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := ctx.Cluster().Metrics().RecordsProcessed.Load() - before; got != int64(len(lists))*1001 {
			t.Errorf("failure rate %v: %d tasks committed %d records, want one per task plus f's", failureRate, len(lists), got)
		}
		if len(lists) != parts {
			t.Fatalf("failure rate %v: %d task results, want %d", failureRate, len(lists), parts)
		}
		if failureRate > 0 && ctx.Cluster().Metrics().TaskFailures.Load() == 0 {
			t.Fatal("no task failed; the faulty case is vacuous")
		}
		var all []pairdist.IDPair
		lastB := -1
		for task, pairs := range lists {
			if !slices.IsSortedFunc(pairs, func(a, b pairdist.IDPair) int { return cmp.Compare(a.B, b.B) }) {
				t.Errorf("failure rate %v: task %d's pairs are not in probe order", failureRate, task)
			}
			if len(pairs) > 0 {
				if pairs[0].B <= lastB {
					t.Errorf("failure rate %v: task %d probes record %d, which an earlier task probed past", failureRate, task, pairs[0].B)
				}
				lastB = pairs[len(pairs)-1].B
			}
			all = append(all, pairs...)
		}
		if !reflect.DeepEqual(canonPairs(all), want) {
			t.Fatalf("failure rate %v: ProbeEach's tasks hold %d pairs, Probe emits %d", failureRate, len(all), len(want))
		}
		if st != wantSt {
			t.Fatalf("failure rate %v: ProbeEach stats %+v, Probe's %+v", failureRate, st, wantSt)
		}
	}
	boom := errors.New("boom")
	_, _, err = ProbeEach(build(), testEngine(0), from, parts, func(*cluster.TaskContext, []pairdist.IDPair) (int, error) {
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("ProbeEach with a failing f returned %v, want %v", err, boom)
	}
}

// TestIndexRanksFrozenBetweenRebuilds pins the rank discipline the exactness
// argument rests on: a token keeps its rank until the next rebuild, tokens
// first seen since the last rebuild sort before every frozen token, and a
// rebuild orders by current frequency.
func TestIndexRanksFrozenBetweenRebuilds(t *testing.T) {
	ix, err := NewIndex(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Frequencies after the first build: 10→4, 20→3, 30→1.
	ix.Append([][]uint32{{10, 20}, {10, 20}, {10, 20}, {10, 30}})
	if ix.rebuilds != 1 {
		t.Fatalf("first Append did not build: %d rebuilds", ix.rebuilds)
	}
	if !(ix.ranks[30] < ix.ranks[20] && ix.ranks[20] < ix.ranks[10]) {
		t.Fatalf("ranks not in ascending frequency: %v", ix.ranks)
	}
	frozen := map[uint32]uint32{10: ix.ranks[10], 20: ix.ranks[20], 30: ix.ranks[30]}

	// Three more records: below the doubling, so no rebuild. Token 30 is now
	// the most frequent of the batch but keeps its rank; 40 is new and must
	// lead every signature it is in.
	ix.Append([][]uint32{{30, 40}, {30}, {30}})
	if ix.rebuilds != 1 {
		t.Fatalf("rebuilt below the doubling: %d rebuilds at %d records", ix.rebuilds, ix.Len())
	}
	for tok, r := range frozen {
		if ix.ranks[tok] != r {
			t.Errorf("token %d moved from rank %d to %d without a rebuild", tok, r, ix.ranks[tok])
		}
	}
	if ix.ranks[40] >= frozenBase || ix.sig(4)[0] != ix.ranks[40] {
		t.Errorf("new token 40 has rank %d and does not lead its signature %v", ix.ranks[40], ix.sig(4))
	}

	// The eighth record doubles the count: re-rank. 30 (4 occurrences) now
	// ranks after 20 (3) and 40 (1).
	ix.Append([][]uint32{{10}})
	if ix.rebuilds != 2 {
		t.Fatalf("no rebuild at the doubling: %d rebuilds at %d records", ix.rebuilds, ix.Len())
	}
	if !(ix.ranks[40] < ix.ranks[20] && ix.ranks[20] < ix.ranks[30] && ix.ranks[30] < ix.ranks[10]) {
		t.Errorf("ranks after rebuild not in ascending frequency: %v", ix.ranks)
	}
	checkIndexInvariants(t, ix)

	// A token seen only in a rolled-back batch loses its rank at the next
	// rebuild instead of lingering.
	ix.Append([][]uint32{{99}})
	ix.Truncate(8)
	ix.Append(make([][]uint32, 8))
	if ix.rebuilds != 3 {
		t.Fatalf("no rebuild at 16 records: %d", ix.rebuilds)
	}
	if _, ok := ix.ranks[99]; ok {
		t.Error("token 99 occurs in no record but kept a rank across a rebuild")
	}
	checkIndexInvariants(t, ix)
}

func TestIndexRejectsBadArguments(t *testing.T) {
	for _, theta := range []float64{0, -0.1, 1.01} {
		if _, err := NewIndex(theta); err == nil {
			t.Errorf("NewIndex(%v): want error", theta)
		}
	}
	ix, err := NewIndex(1)
	if err != nil {
		t.Fatal(err)
	}
	ix.Append([][]uint32{{1}, {1}})
	for _, from := range []int{-1, 3} {
		if _, _, err := ix.Probe(testEngine(0), from, 1); err == nil {
			t.Errorf("Probe from %d of %d: want error", from, ix.Len())
		}
	}
	if pairs, _, err := ix.Probe(testEngine(0), 2, 1); err != nil || pairs != nil {
		t.Errorf("Probe of no records = %v, %v", pairs, err)
	}
	ix.Truncate(5) // beyond Len: no-op
	ix.Truncate(-3)
	if ix.Len() != 0 {
		t.Errorf("Truncate(-3) left %d records", ix.Len())
	}
	checkIndexInvariants(t, ix)
}

// idRanked returns an empty index at theta whose rank order is token-ID
// order for IDs below universe, and which does not rebuild: hand-built
// signatures are then rank-space signatures as written. Any fixed token
// order is exact, so the probe owes such an index the oracle's pairs too.
func idRanked(t *testing.T, theta float64, universe uint32) *Index {
	t.Helper()
	ix, err := NewIndex(theta)
	if err != nil {
		t.Fatal(err)
	}
	for tok := uint32(0); tok < universe; tok++ {
		ix.ranks[tok] = frozenBase + tok
	}
	ix.frozen = universe
	ix.rebuiltAt = 1 << 30
	return ix
}

// consecutive returns the n tokens lo, lo+1, ...
func consecutive(lo, n uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = lo + uint32(i)
	}
	return out
}

// TestProbeFindsPartnersAcrossLengths pins, on hand-built signatures, the
// shapes the shorter-prefix probe must get right: each pair lies where only
// one branch of the probe can find it. A prober shorter than its partner
// whose only common prefix tokens sit in the partner's tail (found only by
// reading tail lists at the prober's mid positions); the mirror, a longer
// prober whose only common prefix tokens sit in its own tail (found only by
// reading mid lists at every prefix position); equal sizes; θ 1, where
// every tail is empty; θ 0.05 at the length bound's edge; and sizes the
// length bound rejects, which must not even be scanned.
func TestProbeFindsPartnersAcrossLengths(t *testing.T) {
	cases := []struct {
		name        string
		theta       float64
		old, prober []uint32
		pair        bool
		// shape is where every common token of the two probing prefixes
		// sits: in the old record's tail, the prober's tail, or, for
		// "rejected", nowhere the length bound lets the probe look.
		shape string
	}{
		{"shorter prober, partner's tail", 0.5,
			append(consecutive(0, 4), consecutive(10, 6)...), append(consecutive(10, 6), 20, 21), true, "old tail"},
		{"longer prober, own tail", 0.5,
			append(consecutive(10, 6), 20, 21), append(consecutive(0, 4), consecutive(10, 6)...), true, "prober tail"},
		{"equal sizes", 0.5,
			append(consecutive(0, 3), consecutive(10, 7)...), append(consecutive(5, 3), consecutive(10, 7)...), true, ""},
		{"equal sizes, one short", 0.5,
			append(consecutive(0, 4), consecutive(10, 6)...), append(consecutive(5, 4), consecutive(10, 6)...), false, ""},
		{"theta 1, equal", 1, []uint32{3, 5, 7}, []uint32{3, 5, 7}, true, ""},
		{"theta 1, subset", 1, []uint32{3, 5, 7, 9}, []uint32{3, 5, 7}, false, ""},
		{"theta 0.05, partner's tail", 0.05,
			append(append(consecutive(100, 37), 200, 201), 300), []uint32{200, 201}, true, "old tail"},
		{"theta 0.05, one past the length bound", 0.05,
			append(append(consecutive(100, 38), 200, 201), 300), []uint32{200, 201}, false, "rejected"},
		{"partner too long", 0.5, consecutive(10, 10), []uint32{10, 11}, false, "rejected"},
		{"partner too short", 0.5, []uint32{10, 11}, consecutive(10, 10), false, "rejected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix := idRanked(t, tc.theta, 512)
			// A record sharing no token with either comes first: an earlier
			// record the probe must pass over without pairing.
			ix.Append([][]uint32{{400}})
			ix.Append([][]uint32{tc.old})
			ix.Append([][]uint32{tc.prober})
			checkIndexInvariants(t, ix)
			for id, sig := range [][]uint32{1: tc.old, 2: tc.prober} {
				for k, tok := range sig {
					if ix.sig(int32(id))[k] != frozenBase+tok {
						t.Fatalf("record %d was not ranked in token order: %v", id, ix.sig(int32(id)))
					}
				}
			}

			cutOf := func(l int) (mid, pre int) {
				return l - pairNeed(tc.theta, l, l) + 1, l - minOverlap(tc.theta, l) + 1
			}
			oldMid, oldPre := cutOf(len(tc.old))
			proberMid, proberPre := cutOf(len(tc.prober))
			common := 0
			for j, tok := range tc.prober[:proberPre] {
				k, found := slices.BinarySearch(tc.old[:oldPre], tok)
				if !found {
					continue
				}
				common++
				switch {
				case tc.shape == "old tail" && k < oldMid:
					t.Fatalf("common token %d at the old record's mid position %d (mid %d)", tok, k, oldMid)
				case tc.shape == "prober tail" && j < proberMid:
					t.Fatalf("common token %d at the prober's mid position %d (mid %d)", tok, j, proberMid)
				}
			}
			if tc.shape != "" && common == 0 {
				t.Fatal("the two probing prefixes share no token; the case tests nothing")
			}

			want := canonPairs(naivePairs([][]uint32{{400}, tc.old, tc.prober}, tc.theta, 2))
			if got := len(want) == 1; got != tc.pair {
				t.Fatalf("oracle pairs %v, case expects a pair: %v", want, tc.pair)
			}
			seq, st := probeSeq(ix, 2)
			if !reflect.DeepEqual(seq, want) {
				t.Fatalf("sequential probe emitted %v, oracle %v (stats %+v)", seq, want, st)
			}
			staged, _, err := ix.Probe(testEngine(0), 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(canonPairs(staged), want) {
				t.Fatalf("staged probe emitted %v, oracle %v", staged, want)
			}
			if tc.shape == "rejected" && st.Scanned != 0 {
				t.Fatalf("scanned %d postings of a partner the length bound rules out", st.Scanned)
			}
		})
	}
}

// TestProbeWindowBoundaries pins the per-position window at its edges, on
// hand-built signatures at θ 0.5 between records of 10 tokens (need 7,
// probing prefix 6, mid prefix 4) and a prober of 8 (need 6 against the
// 10-token partner, mid prefix 3). The window at prober position i admits a
// partner of size la only if need(la, lr) <= lr - i.
//   - A pair whose first common token sits at i = lr - need, the last
//     position the window admits, is found there, and the scan reads what
//     the reference reads.
//   - A partner whose first common prefix token sits at i = lr - need + 1
//     is not read at all; the reference reads it and prunes it there.
//   - A partner longer than the prober whose first common token sits in
//     the partner's tail is reached through the tail list.
func TestProbeWindowBoundaries(t *testing.T) {
	cases := []struct {
		name          string
		old, prober   []uint32
		room          int // lr - i - need at the first common prefix token
		pair          bool
		scanned, refd int64
	}{
		{"first common token at the window's last position",
			append(consecutive(3, 3), consecutive(10, 7)...), append(consecutive(0, 3), consecutive(10, 7)...), 0, true, 1, 1},
		{"first common token one past the window",
			append(consecutive(5, 3), consecutive(10, 7)...), append(consecutive(0, 4), consecutive(10, 6)...), -1, false, 0, 1},
		{"longer partner through its tail",
			append(consecutive(0, 4), consecutive(10, 6)...), append(consecutive(10, 6), 20, 21), 2, true, 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix := idRanked(t, 0.5, 512)
			ix.Append([][]uint32{{400}})
			ix.Append([][]uint32{tc.old})
			ix.Append([][]uint32{tc.prober})
			checkIndexInvariants(t, ix)
			la, lr := len(tc.old), len(tc.prober)
			i := slices.IndexFunc(tc.prober, func(tok uint32) bool { return slices.Contains(tc.old, tok) })
			if room := lr - i - pairNeed(0.5, la, lr); room != tc.room {
				t.Fatalf("first common token at prober position %d leaves room %d, the case is built for %d", i, room, tc.room)
			}
			if la > lr {
				k := slices.Index(tc.old, tc.prober[i])
				if c := ix.cuts[la]; int32(k) < c.mid || int32(k) >= c.pre {
					t.Fatalf("the common token sits at the partner's position %d, outside its tail [%d, %d)", k, c.mid, c.pre)
				}
			}
			want := canonPairs(naivePairs([][]uint32{{400}, tc.old, tc.prober}, 0.5, 2))
			if (len(want) == 1) != tc.pair {
				t.Fatalf("oracle pairs %v, case expects a pair: %v", want, tc.pair)
			}
			got, ref := checkAgainstReference(t, ix, 2)
			if got.Emitted != int64(len(want)) {
				t.Fatalf("emitted %d pairs, oracle %v", got.Emitted, want)
			}
			if got.Scanned != tc.scanned || ref.Scanned != tc.refd {
				t.Fatalf("scanned %d entries, the reference %d; want %d and %d", got.Scanned, ref.Scanned, tc.scanned, tc.refd)
			}
		})
	}
}

// TestProbeWindowMatchesReference holds the probe to the reference probe on
// BenchmarkIndexProbe's corpora: a 10,000-report database at θ 0.5 and a
// 2,000-report one at θ 0.8, each probed by 250 arriving reports. The
// window must leave pairs and counters as they are and read fewer entries.
func TestProbeWindowMatchesReference(t *testing.T) {
	const arriving = 250
	for _, shape := range []struct {
		theta  float64
		seeded int
	}{{0.5, 10000}, {0.8, 2000}} {
		sigs := benchSignatures(t, shape.seeded, arriving)
		ix, err := NewIndex(shape.theta)
		if err != nil {
			t.Fatal(err)
		}
		ix.Append(sigs[:shape.seeded])
		ix.Append(sigs[shape.seeded:])
		got, ref := checkAgainstReference(t, ix, shape.seeded)
		if got.Emitted == 0 || got.Scanned >= ref.Scanned {
			t.Fatalf("θ %v: %d emitted, %d scanned against the reference's %d; the window skipped nothing", shape.theta, got.Emitted, got.Scanned, ref.Scanned)
		}
		t.Logf("θ %v: scanned %d, reference %d; %d verified, %d bitmap-pruned, %d emitted",
			shape.theta, got.Scanned, ref.Scanned, got.Verified, got.BitmapPruned, got.Emitted)
	}
}

// benchSignatures extracts the signatures of a generated database of seeded
// reports followed by an arriving batch, the way the Detector extracts them.
func benchSignatures(b testing.TB, seeded, arriving int) [][]uint32 {
	b.Helper()
	reports := adrgen.Generate(adrgen.Config{NumReports: seeded, DuplicatePairs: seeded / 25, Seed: 1}).Reports
	if arriving > 0 {
		batch := adrgen.Generate(adrgen.Config{NumReports: arriving, DuplicatePairs: arriving / 100, Seed: 2, CampaignFraction: -1}).Reports
		reports = append(reports, batch...)
	}
	feats, err := pairdist.ExtractAllWith(testEngine(0), intern.New(), reports, 4)
	if err != nil {
		b.Fatal(err)
	}
	sigs, err := Signatures(feats)
	if err != nil {
		b.Fatal(err)
	}
	return sigs
}

// BenchmarkIndexProbe times one Index.Probe of 250 arriving reports at two
// shapes: the batch_detect workload's (a 10,000-report database, θ 0.5) and
// the serve_singles/serve_open workloads' (2,000 reports, θ 0.8). The custom
// metrics are the counters behind the time: postings scanned, merge-scan
// verifications per emitted pair, and candidates the bitmap bound ruled out.
func BenchmarkIndexProbe(b *testing.B) {
	const arriving = 250
	for _, shape := range []struct {
		name   string
		theta  float64
		seeded int
	}{
		{"theta=0.5/records=10k", 0.5, 10000},
		{"theta=0.8/records=2k", 0.8, 2000},
	} {
		b.Run(shape.name, func(b *testing.B) {
			sigs := benchSignatures(b, shape.seeded, arriving)
			ix, err := NewIndex(shape.theta)
			if err != nil {
				b.Fatal(err)
			}
			ix.Append(sigs[:shape.seeded])
			ix.Append(sigs[shape.seeded:])

			ctx := testEngine(0)
			var st Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, st, err = ix.Probe(ctx, shape.seeded, 8); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Verified)/float64(st.Emitted), "verified/emitted")
			b.ReportMetric(float64(st.BitmapPruned), "bitmap-pruned/op")
			b.ReportMetric(float64(st.Scanned), "scanned/op")
			b.ReportMetric(float64(st.Emitted), "emitted/op")
		})
	}
}

// BenchmarkIndexAppend times growing an index the way a Detector grows it:
// a 2,000-record seed, then 250-record batches up to 64,000 records, which
// crosses five doubling rebuilds (at 4k, 8k, 16k, 32k and 64k records). It
// reports the mean cost per appended record and the slowest single Append,
// which is the rebuild one batch pays alone.
func BenchmarkIndexAppend(b *testing.B) {
	const seeded, total, batch = 2000, 64000, 250
	sigs := benchSignatures(b, total, 0)
	var slowest time.Duration
	rebuilds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix, err := NewIndex(0.5)
		if err != nil {
			b.Fatal(err)
		}
		ix.Append(sigs[:seeded])
		start := ix.rebuilds
		b.StartTimer()
		for from := seeded; from < total; from += batch {
			t0 := time.Now()
			ix.Append(sigs[from : from+batch])
			slowest = max(slowest, time.Since(t0))
		}
		rebuilds = ix.rebuilds - start
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(total-seeded)), "ns/record")
	b.ReportMetric(float64(slowest.Nanoseconds())/1e6, "max-append-ms")
	b.ReportMetric(float64(rebuilds), "rebuilds")
}
