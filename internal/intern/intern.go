// Package intern maps string tokens to dense uint32 IDs so the pairwise
// distance kernel can compare token sets by merge-scanning sorted ID slices
// instead of building hash sets per comparison (the hot path of the paper's
// pairwise distance computing module, Figure 1 / Fig. 10(b)).
//
// A detector keeps one Interner for its lifetime, so features extracted in
// different batches stay comparable. Extract tasks only tokenise: the driver
// then interns each report's token sets through SortedSet, one report at a
// time in arrival order (pairdist.ExtractAllWith), which is what makes IDs
// independent of how the tasks interleave. Once the vocabulary has been
// seen, most reports are known tokens only and SortedSet answers them under
// the read lock.
package intern

import (
	"slices"
	"strings"
	"sync"
)

// Interner assigns each distinct token a stable uint32 ID, in first-intern
// order. The zero value is not usable; call New.
type Interner struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	toks []string
}

// New returns an empty interner.
func New() *Interner {
	return &Interner{ids: make(map[string]uint32)}
}

// Intern returns the ID of tok, assigning the next free ID on first sight.
// Safe for concurrent use. The product interns through SortedSet; Intern is
// the per-token reference FuzzIntern checks SortedSet against.
func (it *Interner) Intern(tok string) uint32 {
	it.mu.RLock()
	id, ok := it.ids[tok]
	it.mu.RUnlock()
	if ok {
		return id
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.add(tok)
}

// add returns tok's ID, assigning the next one on first sight; it.mu must
// be held for writing. It stores its own copy of a new token: callers pass
// substrings of whole descriptions and report fields, which the table must
// not keep alive.
func (it *Interner) add(tok string) uint32 {
	if id, ok := it.ids[tok]; ok {
		return id
	}
	tok = strings.Clone(tok)
	id := uint32(len(it.toks))
	it.ids[tok] = id
	it.toks = append(it.toks, tok)
	return id
}

// Resolve returns the token for id, and whether id has been assigned.
// Safe for concurrent use.
func (it *Interner) Resolve(id uint32) (string, bool) {
	it.mu.RLock()
	defer it.mu.RUnlock()
	if int(id) >= len(it.toks) {
		return "", false
	}
	return it.toks[id], true
}

// SortedSet interns every token and returns the sorted, deduplicated ID
// set — the representation strsim.JaccardSortedIDs consumes. A nil or empty
// input returns nil. The result is freshly allocated and never aliases
// interner state. IDs are assigned as per-token Intern calls in input order
// would assign them, under one read lock for a set of known tokens and one
// write lock for the rest.
func (it *Interner) SortedSet(tokens []string) []uint32 {
	if len(tokens) == 0 {
		return nil
	}
	ids := make([]uint32, len(tokens))
	miss := len(tokens)
	it.mu.RLock()
	for i, t := range tokens {
		id, ok := it.ids[t]
		if !ok {
			miss = i
			break
		}
		ids[i] = id
	}
	it.mu.RUnlock()
	if miss < len(tokens) {
		it.mu.Lock()
		for i := miss; i < len(tokens); i++ {
			ids[i] = it.add(tokens[i])
		}
		it.mu.Unlock()
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}
