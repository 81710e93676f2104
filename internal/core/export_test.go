package core

// Test-only API: declared in a _test.go file so that only this package's
// tests can reach it.

// Centers returns the Voronoi cell centers of the training partition.
func (c *Classifier) Centers() [][]float64 { return c.centers }
