package text

// Test-only API: declared in a _test.go file so that only this package's
// tests can reach it.

// Stem is stem in a stack buffer: a word Porter leaves unchanged is
// returned as given, without allocating when it is at most stemBuf bytes.
func Stem(word string) string {
	var buf [stemBuf]byte
	if b, changed := stem(buf[:], word); changed {
		return string(b)
	}
	return word
}
