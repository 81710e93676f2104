// Package text implements the natural-language processing pipeline the
// paper applies to the free-text "report description" field (§4.2):
// tokenization, stop-word removal, and Porter stemming. The output token
// sets feed the Jaccard distance used for string-typed fields.
package text

import (
	"strings"
	"unicode"
)

// Tokenize splits s into lowercase word tokens. A token is a maximal run of
// letters or digits; everything else (punctuation, whitespace) separates
// tokens. Purely numeric tokens are kept: dates and dosages carry signal for
// duplicate detection.
func Tokenize(s string) []string {
	if s == "" {
		return nil
	}
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
// stop-word filter and stemmer run in place on the freshly tokenized slice
// (Tokenize always returns a new slice), so the pipeline allocates once.
func Process(s string) []string {
	tokens := Tokenize(s)
	out := tokens[:0]
	for _, t := range tokens {
		if !IsStopword(t) {
			out = append(out, Stem(t))
		}
	}
	return out
}
