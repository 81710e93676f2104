package text

import "testing"

// FuzzStem fuzzes the Porter stemmer. For any input, Stem must not panic,
// must never grow the word, and must *converge*: repeated stemming reaches a
// fixed point (idempotence). Strict one-step idempotence is not a true
// Porter invariant — the reference algorithm maps "agreed" → "agre" → "agr"
// → "agr" — and neither is any constant number of steps: step 5a strips one
// final e per application, so "abyeeee" → "abyeee" → "abyee" → "abye" →
// "aby" → "abi" → "abi". Convergence within len(word)+1 applications is:
// every non-fixed application either shortens the word or rewrites a final
// y to i, so no oscillation is possible. A stemmer bug that breaks
// termination, grows words, or cycles trips this target.
//
// The committed corpus under testdata/fuzz/FuzzStem seeds the usual
// suspects: suffix families, short words, non-letters, repeated letters,
// the known two-step chain "agreed" and the six-step chain "abyeeee".
func FuzzStem(f *testing.F) {
	for _, w := range []string{
		"", "a", "be", "cat", "caresses", "ponies", "relational",
		"conditional", "adjustment", "triplicate", "dependent",
		"probate", "controllable", "hopefulness", "agreed", "feed",
		"matting", "sky", "y", "oscillate", "vietnamization",
		"ADR!", "naïve", "aspirin", "headache", "dizziness", "abyeeee",
	} {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, word string) {
		cur := Stem(word)
		if len(cur) > len(word) {
			t.Fatalf("Stem(%q) = %q grew the word", word, cur)
		}
		// Convergence: the stem must become its own stem before the
		// applications outnumber the letters there were to lose.
		maxRounds := len(word) + 1
		for i := 0; i < maxRounds; i++ {
			next := Stem(cur)
			if len(next) > len(cur) {
				t.Fatalf("Stem(%q) = %q grew the word (round %d from %q)", cur, next, i+1, word)
			}
			if next == cur {
				return
			}
			cur = next
		}
		if next := Stem(cur); next != cur {
			t.Errorf("Stem(%q) did not reach a fixed point after %d rounds: still %q -> %q",
				word, maxRounds, cur, next)
		}
	})
}
