package text

import (
	"reflect"
	"testing"
)

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

// referenceTokenize is Tokenize's per-character path applied to every
// input, as Tokenize was before it gained an ASCII path.
func referenceTokenize(s string) []string {
	if s == "" {
		return nil
	}
	return tokenizeRunes(s)
}

// referenceStem is Stem as it was before it worked in a stack buffer: a
// fresh copy of every stemmable word.
func referenceStem(word string) string {
	if len(word) <= 2 {
		return word
	}
	for i := 0; i < len(word); i++ {
		if word[i] < 'a' || word[i] > 'z' {
			return word
		}
	}
	s := &stemmer{b: []byte(word), k: len(word) - 1}
	s.step1ab()
	if s.k > 0 {
		s.step1c()
		s.step2()
		s.step3()
		s.step4()
		s.step5()
	}
	return string(s.b[:s.k+1])
}

// FuzzTokenizeMatchesReference holds Tokenize, Stem and Process to their
// per-character, copy-per-word references on ASCII, mixed and invalid
// UTF-8 input: the same tokens in the same order, the same stems.
func FuzzTokenizeMatchesReference(f *testing.F) {
	for _, s := range []string{
		"", "!!!", "a", "Hello, World!",
		"The patient experienced uncontrollable coughing and headaches.",
		"On 30 April 2013, in the evening; 02-Oct-2013 atorvastatin 80MG",
		"UPPER lower MiXeD x2y 007 hopefulness relational",
		"naïve Café résumé: headache", "头痛 nausea 头痛 ñ", "ǅungla İstanbul ΣΊΣΥΦΟΣ",
		"\xff\xfe not utf8 \x00", "abc\xc3def", "tab\tnew\nline\rcr",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := Tokenize(s), referenceTokenize(s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", s, got, want)
		}
		var wantProc []string
		for _, tok := range want {
			if st := Stem(tok); st != referenceStem(tok) {
				t.Fatalf("Stem(%q) = %q, reference %q", tok, st, referenceStem(tok))
			}
			if !IsStopword(tok) {
				wantProc = append(wantProc, referenceStem(tok))
			}
		}
		proc := Process(s)
		if len(proc) != len(wantProc) || len(proc) > 0 && !reflect.DeepEqual(proc, wantProc) {
			t.Fatalf("Process(%q) = %q, reference %q", s, proc, wantProc)
		}
	})
}
