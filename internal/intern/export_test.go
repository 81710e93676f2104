package intern

// Test-only API: declared in a _test.go file so that only this package's
// tests can reach it.

// Len returns the number of distinct tokens interned so far.
func (it *Interner) Len() int {
	it.mu.RLock()
	defer it.mu.RUnlock()
	return len(it.toks)
}
