package svm

// Test-only API: declared in a _test.go file so that only this package's
// tests can reach it.

// Predict thresholds the decision value at zero.
func (m *Model) Predict(v []float64) int {
	if m.Decision(v) >= 0 {
		return 1
	}
	return -1
}
