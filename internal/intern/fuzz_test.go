package intern

import (
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// FuzzIntern fuzzes the interner with arbitrary byte input split into
// tokens. Invariants, for any input:
//
//   - intern → resolve round-trips every token exactly;
//   - interning is stable: the same token yields the same ID across calls;
//   - IDs are dense: every ID below Len resolves;
//   - SortedSet output is strictly increasing (sorted and deduplicated)
//     and its resolved tokens equal the distinct input tokens;
//   - SortedSet assigns the IDs per-token Intern calls in input order
//     assign, on a fresh interner and on one that knows some tokens;
//   - no stored token shares memory with the caller's string: the tokens
//     are substrings of one input string, as Tokenize cuts them.
//
// The committed corpus under testdata/fuzz/FuzzIntern seeds empty input,
// repeated tokens, and multi-byte unicode tokens.
func FuzzIntern(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("aspirin headache aspirin"))
	f.Add([]byte("头痛 nausea 头痛 ñ"))
	f.Add([]byte("a b c d e f g a b c"))
	f.Fuzz(func(t *testing.T, data []byte) {
		input := string(data)
		tokens := strings.Fields(input)
		it := New()
		ids := make(map[string]uint32)
		for _, tok := range tokens {
			id := it.Intern(tok)
			if prev, ok := ids[tok]; ok && prev != id {
				t.Fatalf("Intern(%q) unstable: %d then %d", tok, prev, id)
			}
			ids[tok] = id
			got, ok := it.Resolve(id)
			if !ok || got != tok {
				t.Fatalf("Resolve(Intern(%q)) = %q, %v", tok, got, ok)
			}
		}
		if it.Len() != len(ids) {
			t.Fatalf("Len = %d, want %d distinct tokens", it.Len(), len(ids))
		}
		for id := uint32(0); int(id) < it.Len(); id++ {
			if _, ok := it.Resolve(id); !ok {
				t.Fatalf("dense ID %d does not resolve", id)
			}
		}
		set := it.SortedSet(tokens)
		if len(set) != len(ids) {
			t.Fatalf("SortedSet has %d ids, want %d", len(set), len(ids))
		}
		for i, id := range set {
			if i > 0 && set[i-1] >= id {
				t.Fatalf("SortedSet not strictly increasing at %d: %v", i, set)
			}
			tok, ok := it.Resolve(id)
			if !ok {
				t.Fatalf("set id %d does not resolve", id)
			}
			if _, seen := ids[tok]; !seen {
				t.Fatalf("set id %d resolves to %q, not an input token", id, tok)
			}
		}
		for id := uint32(0); int(id) < it.Len(); id++ {
			tok, _ := it.Resolve(id)
			if sharesMemory(tok, input) {
				t.Fatalf("stored token %q shares memory with the caller's string", tok)
			}
		}

		// SortedSet against per-token Intern in input order, from empty and
		// after the first half of the tokens is already known.
		for _, known := range [][]string{nil, tokens[:len(tokens)/2]} {
			bySet, byToken := New(), New()
			for _, tok := range known {
				bySet.Intern(tok)
				byToken.Intern(tok)
			}
			set := bySet.SortedSet(tokens)
			var want []uint32
			for _, tok := range tokens {
				want = append(want, byToken.Intern(tok))
			}
			slices.Sort(want)
			want = slices.Compact(want)
			if !slices.Equal(set, want) {
				t.Fatalf("SortedSet = %v, per-token Intern = %v", set, want)
			}
			if bySet.Len() != byToken.Len() {
				t.Fatalf("SortedSet interned %d tokens, per-token Intern %d", bySet.Len(), byToken.Len())
			}
			for id := uint32(0); int(id) < bySet.Len(); id++ {
				a, _ := bySet.Resolve(id)
				b, _ := byToken.Resolve(id)
				if a != b {
					t.Fatalf("id %d is %q under SortedSet, %q under Intern", id, a, b)
				}
				if sharesMemory(a, input) {
					t.Fatalf("SortedSet stored token %q sharing memory with the caller's string", a)
				}
			}
		}
	})
}

// sharesMemory reports whether a's bytes lie inside b's.
func sharesMemory(a, b string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.StringData(a))), uintptr(unsafe.Pointer(unsafe.StringData(b)))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}
