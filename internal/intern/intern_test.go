package intern

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternRoundTrip(t *testing.T) {
	it := New()
	words := []string{"aspirin", "headache", "aspirin", "", "nausea", "头痛"}
	ids := make([]uint32, len(words))
	for i, w := range words {
		ids[i] = it.Intern(w)
	}
	if ids[0] != ids[2] {
		t.Errorf("same token interned to %d and %d", ids[0], ids[2])
	}
	if it.Len() != 5 {
		t.Errorf("Len = %d, want 5 distinct tokens", it.Len())
	}
	for i, w := range words {
		got, ok := it.Resolve(ids[i])
		if !ok || got != w {
			t.Errorf("Resolve(%d) = %q, %v; want %q", ids[i], got, ok, w)
		}
	}
	if _, ok := it.Resolve(uint32(it.Len())); ok {
		t.Error("Resolve past the end reported ok")
	}
}

func TestInternIDsAreDense(t *testing.T) {
	it := New()
	for i := 0; i < 100; i++ {
		if id := it.Intern(fmt.Sprintf("tok%d", i)); id != uint32(i) {
			t.Fatalf("token %d got id %d, want dense first-intern order", i, id)
		}
	}
}

func TestSortedSet(t *testing.T) {
	it := New()
	cases := []struct {
		in   []string
		want int // distinct count
	}{
		{nil, 0},
		{[]string{}, 0},
		{[]string{"a"}, 1},
		{[]string{"b", "a", "b", "a", "c"}, 3},
		{[]string{"x", "x", "x"}, 1},
	}
	for _, c := range cases {
		got := it.SortedSet(c.in)
		if len(got) != c.want {
			t.Errorf("SortedSet(%v) has %d ids, want %d", c.in, len(got), c.want)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Errorf("SortedSet(%v) = %v not strictly increasing", c.in, got)
			}
		}
	}
}

func TestSortedSetMatchesMapSemantics(t *testing.T) {
	it := New()
	in := []string{"d", "b", "d", "a", "c", "b", "a"}
	ids := it.SortedSet(in)
	distinct := make(map[string]bool)
	for _, s := range in {
		distinct[s] = true
	}
	if len(ids) != len(distinct) {
		t.Fatalf("SortedSet kept %d ids, want %d distinct", len(ids), len(distinct))
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		tok, ok := it.Resolve(id)
		if !ok || !distinct[tok] {
			t.Fatalf("id %d resolves to %q (%v), not an input token", id, tok, ok)
		}
		if seen[tok] {
			t.Fatalf("token %q appears twice in the set", tok)
		}
		seen[tok] = true
	}
}

// TestInternConcurrent hammers one interner from many goroutines over an
// overlapping vocabulary, half through Intern and half through SortedSet;
// run with -race. IDs must stay consistent.
func TestInternConcurrent(t *testing.T) {
	it := New()
	const workers = 8
	var wg sync.WaitGroup
	results := make([]map[string]uint32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := make(map[string]uint32)
			for i := 0; i < 500; i++ {
				tok := fmt.Sprintf("tok%d", (i*7+w)%100)
				if w%2 == 0 {
					m[tok] = it.Intern(tok)
					continue
				}
				for _, id := range it.SortedSet([]string{tok, fmt.Sprintf("tok%d", (i*3+w)%100)}) {
					s, _ := it.Resolve(id)
					m[s] = id
				}
			}
			results[w] = m
		}(w)
	}
	wg.Wait()
	if it.Len() != 100 {
		t.Fatalf("Len = %d, want 100", it.Len())
	}
	for w := 1; w < workers; w++ {
		for tok, id := range results[w] {
			if want, ok := results[0][tok]; ok && id != want {
				t.Fatalf("worker %d saw %q=%d, worker 0 saw %d", w, tok, id, want)
			}
		}
	}
}
