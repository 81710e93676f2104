// Package strsim provides the token-set similarity of §4.2 of the paper: the
// Jaccard coefficient (Eq. 4). The distance kernel runs it as a merge scan
// over sorted, deduplicated interned ID sets (ids.go); the map-based string
// form in this file is the reference those scans are tested against.
//
// Similarities lie in [0, 1] where 1 means identical; distances are
// 1 - similarity.
package strsim

// Jaccard returns the Jaccard similarity coefficient |A∩B| / |A∪B| between
// two sets of tokens. Duplicate tokens within one input count once. Two
// empty sets have similarity 1 (they are identical).
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	sa := make(map[string]struct{}, len(a))
	for _, t := range a {
		sa[t] = struct{}{}
	}
	sb := make(map[string]struct{}, len(b))
	for _, t := range b {
		sb[t] = struct{}{}
	}
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return float64(inter) / float64(union)
}

// JaccardDistance is 1 - Jaccard(a, b), the set distance used by the paper
// for string-typed fields (Eq. 4).
func JaccardDistance(a, b []string) float64 {
	return 1 - Jaccard(a, b)
}
