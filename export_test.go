package adrdedup

// LastDetectShape returns the candidate pairs of the detector's last Detect,
// the distinct distance vectors among them, and how many of those Classify
// was sent, the ones the model had not scored before. It exists for the
// external test package's benchmarks.
func (d *Detector) LastDetectShape() (pairs, distinct, classified int) {
	return d.shape.pairs, d.shape.distinct, d.shape.classified
}
