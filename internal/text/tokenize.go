// Package text implements the natural-language processing pipeline the
// paper applies to the free-text "report description" field (§4.2):
// tokenization, stop-word removal, and Porter stemming. The output token
// sets feed the Jaccard distance used for string-typed fields.
package text

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize splits s into lowercase word tokens. A token is a maximal run of
// letters or digits; everything else (punctuation, whitespace) separates
// tokens. Purely numeric tokens are kept: dates and dosages carry signal for
// duplicate detection.
//
// ASCII input is lower-cased once and its tokens are substrings of that
// copy; input with any other byte takes the per-character path.
func Tokenize(s string) []string {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return tokenizeRunes(s)
		}
	}
	lower := strings.ToLower(s)
	n := 0
	for i := 0; i < len(lower); i++ {
		if isAlnum(lower[i]) && (i == 0 || !isAlnum(lower[i-1])) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	tokens := make([]string, 0, n)
	for i := 0; i < len(lower); {
		if !isAlnum(lower[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(lower) && isAlnum(lower[j]) {
			j++
		}
		tokens = append(tokens, lower[i:j])
		i = j
	}
	return tokens
}

// isAlnum reports whether the ASCII byte c is a letter or a digit, which is
// what unicode.IsLetter and unicode.IsDigit say of it.
func isAlnum(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// tokenizeRunes is Tokenize for input beyond ASCII, one rune at a time.
func tokenizeRunes(s string) []string {
	tokens := make([]string, 0, len(s)/5)
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	if len(tokens) == 0 {
		return nil
	}
	return tokens
}

// stopwords is a standard English stop-word list augmented with tokens that
// are boilerplate in ADR report narratives ("patient", "subject", "report",
// "experienced") and therefore carry no duplicate-detection signal. The
// augmentation mirrors common practice for clinical narrative processing.
var stopwords = func() map[string]struct{} {
	words := []string{
		"a", "about", "above", "after", "again", "against", "all", "am",
		"an", "and", "any", "are", "as", "at", "be", "because", "been",
		"before", "being", "below", "between", "both", "but", "by", "can",
		"could", "did", "do", "does", "doing", "down", "during", "each",
		"few", "for", "from", "further", "had", "has", "have", "having",
		"he", "her", "here", "hers", "herself", "him", "himself", "his",
		"how", "i", "if", "in", "into", "is", "it", "its", "itself",
		"just", "me", "more", "most", "my", "myself", "no", "nor", "not",
		"now", "of", "off", "on", "once", "only", "or", "other", "our",
		"ours", "ourselves", "out", "over", "own", "same", "she", "should",
		"so", "some", "such", "than", "that", "the", "their", "theirs",
		"them", "themselves", "then", "there", "these", "they", "this",
		"those", "through", "to", "too", "under", "until", "up", "very",
		"was", "we", "were", "what", "when", "where", "which", "while",
		"who", "whom", "why", "will", "with", "you", "your", "yours",
		"yourself", "yourselves",
		// ADR-narrative boilerplate.
		"patient", "subject", "report", "reported", "reporting",
		"experienced", "case", "pertaining", "received",
	}
	m := make(map[string]struct{}, len(words))
	for _, w := range words {
		m[w] = struct{}{}
	}
	return m
}()

// IsStopword reports whether the (lowercase) token is on the stop-word list.
func IsStopword(token string) bool {
	_, ok := stopwords[token]
	return ok
}

// Process runs the full pipeline of §4.2 on a free-text field: tokenize,
// remove stop-words, and stem each remaining token to its root form. The
// stop-word filter and stemmer run in place on the freshly tokenized slice.
// A token Porter leaves unchanged is kept as Tokenize cut it; the stems that
// differ share one buffer. So an ASCII description costs at most three
// allocations: the lower-cased copy, the token slice and the stem buffer.
func Process(s string) []string {
	tokens := Tokenize(s)
	out := tokens[:0]
	var stems strings.Builder
	var buf [stemBuf]byte
	for i, t := range tokens {
		if IsStopword(t) {
			continue
		}
		b, changed := stem(buf[:], t)
		if !changed {
			out = append(out, t)
			continue
		}
		if stems.Cap() == 0 {
			// No stem outgrows its word, so the words left bound the
			// buffer. out has not yet overwritten tokens[i:].
			n := 0
			for _, w := range tokens[i:] {
				n += len(w)
			}
			stems.Grow(n)
		}
		start := stems.Len()
		stems.Write(b)
		// The builder only appends, so earlier stems stay valid.
		out = append(out, stems.String()[start:])
	}
	return out
}
