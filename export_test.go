package adrdedup

// LastDetectShape returns the candidate pairs of the detector's last Detect
// and the distinct distance vectors among them, the count Classify was sent.
// It exists for the external test package's benchmarks.
func (d *Detector) LastDetectShape() (pairs, distinct int) {
	return d.shape.pairs, d.shape.distinct
}
