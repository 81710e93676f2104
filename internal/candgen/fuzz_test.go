package candgen

import (
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"adrdedup/internal/strsim"
)

// decodeCorpus turns arbitrary fuzz bytes into a signature corpus. Byte 0
// scales θ into (0, 1]; the rest split into records on 0xFF, each remaining
// byte one token ID mod 48 (a small universe forces collisions, duplicates
// inside a record, and empty records — exactly the shapes the index must
// normalize away).
func decodeCorpus(data []byte) (theta float64, sigs [][]uint32) {
	theta = 0.5
	if len(data) > 0 {
		theta = float64(1+int(data[0])) / 256
		data = data[1:]
	}
	sigs = [][]uint32{nil}
	for _, b := range data {
		if b == 0xFF {
			sigs = append(sigs, nil)
			continue
		}
		tok := uint32(b % 48)
		last := sigs[len(sigs)-1]
		dup := false
		for _, t := range last {
			if t == tok {
				dup = true
				break
			}
		}
		if !dup {
			// Insertion sort keeps each signature sorted + deduplicated,
			// the intern.SortedSet contract Signatures guarantees.
			i := len(last)
			last = append(last, tok)
			for ; i > 0 && last[i-1] > last[i]; i-- {
				last[i-1], last[i] = last[i], last[i-1]
			}
			sigs[len(sigs)-1] = last
		}
	}
	return theta, sigs
}

// FuzzIndexAppend fuzzes the persistent index's append history. data is a
// corpus as decodeCorpus reads it; each byte of sched (cycled) drives one
// step: the low three bits are the batch size minus one, the top bit makes a
// failed batch — the upcoming records plus one of tokens seen nowhere else —
// reach the index and be truncated away first. Two indexes see the same
// batches, only one of them the failed ones. After every batch both must
// emit exactly the from-scratch oracle's pairs for that batch: no history of
// appends, rollbacks and doubling rebuilds may drop, add or duplicate a
// pair, and Truncate must leave an index whose next probe equals that of an
// index the dropped records never reached. Both must also match the
// reference probe, counters included. A third index takes the whole
// corpus in one Append, the shape Pairs gives it and batches of at most 8
// records never reach, and must emit the whole corpus' pairs.
func FuzzIndexAppend(f *testing.F) {
	f.Add([]byte(""), []byte(""))
	f.Add([]byte{128, 1, 2, 3, 0xFF, 1, 2, 3, 0xFF, 0xFF, 4, 0xFF, 1, 2, 0xFF, 0xFF, 3, 4}, []byte{0x80, 0x01})
	f.Add([]byte{255, 7, 7, 7, 0xFF, 7, 9, 0xFF, 9, 0xFF, 7, 0xFF, 7, 9}, []byte{0x00})
	f.Add([]byte{64, 47, 46, 45, 44, 0xFF, 44, 45, 46, 0xFF, 1, 44, 0xFF, 44, 45, 0xFF, 46}, []byte{0x92, 0x07, 0x80})
	// Small whole corpora, each under a one-byte schedule: one batch of up
	// to 8, a failed batch before every record, single records, and a failed
	// batch before every pair of records.
	f.Add([]byte{128, 1, 2, 3, 0xFF, 1, 2, 3, 0xFF, 0xFF, 4}, []byte{0x07})
	f.Add([]byte{255, 7, 7, 7, 0xFF, 7, 9, 0xFF, 9}, []byte{0x80})
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 5, 6, 0xFF, 6, 5}, []byte{0x00})
	f.Add([]byte{64, 47, 46, 45, 44, 0xFF, 44, 45, 46, 0xFF, 1, 44}, []byte{0x81})
	f.Fuzz(func(t *testing.T, data, sched []byte) {
		if len(data) > 512 {
			t.Skip("cap corpus size; the oracle is quadratic")
		}
		theta, sigs := decodeCorpus(data)
		if len(sched) == 0 {
			sched = []byte{2}
		}
		ix, err := NewIndex(theta)
		if err != nil {
			t.Fatal(err)
		}
		clean, _ := NewIndex(theta)
		for from, step := 0, 0; from < len(sigs); step++ {
			b := sched[step%len(sched)]
			total := min(from+1+int(b&7), len(sigs))
			if b&0x80 != 0 {
				// Token 48+ never occurs in a decoded corpus.
				doomed := append([][]uint32{{48 + uint32(b>>3&7), 60}}, sigs[from:total]...)
				ix.Append(doomed)
				ix.Truncate(from)
				checkIndexInvariants(t, ix)
			}
			ix.Append(sigs[from:total])
			clean.Append(sigs[from:total])
			checkIndexInvariants(t, ix)

			want := canonPairs(naivePairs(sigs[:total], theta, from))
			got, _ := probeSeq(ix, from)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("θ=%v from %d: index with rollbacks emitted %v, oracle %v; sigs=%v sched=%v",
					theta, from, got, want, sigs[:total], sched)
			}
			if got, _ := probeSeq(clean, from); !reflect.DeepEqual(got, want) {
				t.Fatalf("θ=%v from %d: index emitted %v, oracle %v; sigs=%v sched=%v",
					theta, from, got, want, sigs[:total], sched)
			}
			checkAgainstReference(t, ix, from)
			checkAgainstReference(t, clean, from)
			from = total
		}
		if ix.Len() != len(sigs) || clean.Len() != len(sigs) {
			t.Fatalf("indexes hold %d and %d records, want %d", ix.Len(), clean.Len(), len(sigs))
		}
		whole, _ := NewIndex(theta)
		whole.Append(sigs)
		checkIndexInvariants(t, whole)
		got, _, err := whole.Probe(testEngine(0), 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if want := canonPairs(naivePairs(sigs, theta, 0)); !reflect.DeepEqual(canonPairs(got), want) {
			t.Fatalf("θ=%v: whole-corpus index emitted %v, oracle %v; sigs=%v", theta, got, want, sigs)
		}
	})
}

// decodeIDSet reads data as little-endian uint32 token IDs (a trailing
// partial word is dropped) and returns them as a sorted, deduplicated set.
func decodeIDSet(data []byte) []uint32 {
	var set []uint32
	for ; len(data) >= 4; data = data[4:] {
		set = append(set, binary.LittleEndian.Uint32(data))
	}
	slices.Sort(set)
	return slices.Compact(set)
}

func encodeIDSet(set []uint32) []byte {
	var data []byte
	for _, t := range set {
		data = binary.LittleEndian.AppendUint32(data, t)
	}
	return data
}

// decodeByteSet reads each byte of data as one token ID and returns them as
// a sorted, deduplicated set: a 256-token universe, so two fuzzed sets share
// tokens often.
func decodeByteSet(data []byte) []uint32 {
	set := make([]uint32, len(data))
	for i, b := range data {
		set[i] = uint32(b)
	}
	slices.Sort(set)
	return slices.Compact(set)
}

// FuzzResumeVerify fuzzes the probe's verification against the verifier it
// replaces. For two sets a (the indexed candidate) and r (the prober) and a
// θ, it takes the length window and need the probe would use (needTable),
// the rectangle the probe would scan, a[:prefixOf] × r[:lr-need+1], and the
// number of common tokens inside it, which is what the scan leaves in the
// candidate's count. The rectangle must lie inside the prefixes the probe's
// branch reads, must hold a common token whenever JaccardSimAtLeast accepts
// the pair (the prefix argument that lets the probe skip the rest of the
// lists), the window must admit every pair it accepts, and resumeVerify,
// from that count, must accept exactly the pairs it accepts.
func FuzzResumeVerify(f *testing.F) {
	f.Add(byte(127), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []byte{5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(byte(127), []byte{5, 6, 7, 8, 9, 10, 11, 12}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, thetaByte byte, rawA, rawR []byte) {
		theta := float64(1+int(thetaByte)) / 256
		a, r := decodeByteSet(rawA), decodeByteSet(rawR)
		if len(a) == 0 || len(r) == 0 {
			t.Skip("empty signatures pair outside the posting lists")
		}
		ix, err := NewIndex(theta)
		if err != nil {
			t.Fatal(err)
		}
		ix.Append([][]uint32{a, r}) // sizes the index's cut table
		var sc probeScratch
		need, minLen, maxLen := sc.needTable(theta, len(r), len(ix.cuts)-1)
		want := strsim.JaccardSimAtLeast(a, r, theta)
		la := len(a)
		if la < minLen || la > maxLen {
			if want {
				t.Fatalf("θ=%v: length window [%d, %d] rejects a pair the verifier accepts; a=%v r=%v", theta, minLen, maxLen, a, r)
			}
			return
		}
		lr, n := len(r), int(need[la])
		if n > lr {
			if want {
				t.Fatalf("θ=%v: need %d exceeds the prober's %d tokens for a pair the verifier accepts; a=%v r=%v", theta, n, lr, a, r)
			}
			return
		}
		ma, mr := ix.prefixOf(la, lr), lr-n+1
		branch := ix.cuts[lr].pre
		if la > lr {
			branch = ix.cuts[lr].mid
		}
		if mr > int(branch) {
			t.Fatalf("θ=%v: window r[:%d] for a partner of %d tokens reaches past the prefix the probe reads (cut %+v of %d tokens)", theta, mr, la, ix.cuts[lr], lr)
		}
		count := 0
		for _, tok := range a[:ma] {
			if _, found := slices.BinarySearch(r[:mr], tok); found {
				count++
			}
		}
		if want && count == 0 {
			t.Fatalf("θ=%v: accepted pair shares no token in the rectangle a[:%d] × r[:%d]; a=%v r=%v", theta, ma, mr, a, r)
		}
		if got := resumeVerify(a, r, ma, mr, count, int(need[la])); got != want {
			t.Fatalf("θ=%v: resumed verification says %v from %d of need %d in a[:%d] × r[:%d], JaccardSimAtLeast %v; a=%v r=%v",
				theta, got, count, need[la], ma, mr, want, a, r)
		}
	})
}

// FuzzBitmapBound fuzzes the hashed-bitmap overlap bound on two arbitrary
// token-ID sets entered into an index: the bound must never fall below the
// true intersection size, must therefore never rule out a pair that
// JaccardSimAtLeast accepts at the fuzzed θ, and a probe of the two records
// must emit the pair exactly when the from-scratch oracle does. The seeds
// cover what hashing to 256 bits can do to a set: sets far larger than the
// bitmap (every bit set, the bound degenerates to the length bound), sets
// that differ only in tokens sharing one bit (the difference is invisible),
// near-duplicates, disjoint sets, and the empty set.
func FuzzBitmapBound(f *testing.F) {
	span := func(lo, n, step uint32) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = lo + uint32(i)*step
		}
		return out
	}
	// Tokens that all hash to bit 0.
	var colliding []uint32
	for t := uint32(0); len(colliding) < 40; t++ {
		if bitmapBit(t) == 0 {
			colliding = append(colliding, t)
		}
	}
	f.Add(byte(127), []byte{}, []byte{})
	f.Add(byte(127), encodeIDSet(span(0, 30, 1)), encodeIDSet(span(0, 30, 1)))
	f.Add(byte(127), encodeIDSet(span(0, 30, 1)), encodeIDSet(span(5, 30, 1)))
	f.Add(byte(200), encodeIDSet(span(0, 30, 1)), encodeIDSet(span(1000, 30, 7)))
	f.Add(byte(127), encodeIDSet(span(0, 600, 1)), encodeIDSet(span(300, 600, 1)))
	f.Add(byte(76), encodeIDSet(span(0, 1000, 3)), encodeIDSet(span(0, 700, 3)))
	f.Add(byte(127), encodeIDSet(colliding[:20]), encodeIDSet(colliding[20:]))
	f.Add(byte(127), encodeIDSet(append(span(0, 20, 1), colliding[:10]...)), encodeIDSet(append(span(0, 20, 1), colliding[10:25]...)))
	f.Add(byte(255), encodeIDSet(span(0, 300, 1)), encodeIDSet(span(0, 299, 1)))
	f.Add(byte(0), encodeIDSet([]uint32{1 << 31, 1<<32 - 1}), encodeIDSet([]uint32{0, 1 << 31}))
	f.Fuzz(func(t *testing.T, thetaByte byte, rawA, rawB []byte) {
		if len(rawA)+len(rawB) > 1<<14 {
			t.Skip("cap set sizes")
		}
		theta := float64(1+int(thetaByte)) / 256
		a, b := decodeIDSet(rawA), decodeIDSet(rawB)
		ix, err := NewIndex(theta)
		if err != nil {
			t.Fatal(err)
		}
		ix.Append([][]uint32{a, b})
		checkBitmaps(t, ix, [][]uint32{a, b})

		inter := 0
		for _, tok := range a {
			if _, found := slices.BinarySearch(b, tok); found {
				inter++
			}
		}
		bound := overlapBound(ix.bitmap(0), ix.bitmap(1), len(a), len(b))
		if bound < inter {
			t.Fatalf("bound %d below the true overlap %d; a=%v b=%v", bound, inter, a, b)
		}
		if need := pairNeed(theta, len(a), len(b)); strsim.JaccardSimAtLeast(a, b, theta) && bound < need {
			t.Fatalf("θ=%v: bound %d < need %d rules out a pair the verifier accepts; a=%v b=%v", theta, bound, need, a, b)
		}
		got, st := probeSeq(ix, 0)
		if want := naiveAtLeast(a, b, theta); (len(got) == 1) != want {
			t.Fatalf("θ=%v: probe emitted %v (stats %+v), oracle says %v; a=%v b=%v", theta, got, st, want, a, b)
		}
	})
}
