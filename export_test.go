package adrdedup

import "adrdedup/internal/pairdist"

// LastDetectShape returns the candidate pairs of the detector's last Detect,
// the distinct distance vectors among them, and how many of those Classify
// was sent, the ones the model had not scored before. It exists for the
// external test package's benchmarks.
func (d *Detector) LastDetectShape() (pairs, distinct, classified int) {
	return d.shape.pairs, d.shape.distinct, d.shape.classified
}

// candidates returns Eq. 3's pairs for the reports from arrival sequence
// existing on, sorted by (A, B), as a list: Index.Probe's merged output under
// CandidatePrefixIndex, every pair under brute force. Detect never builds
// this list; the tests' references vectorize it with pairdist.ComputeVectors.
func (d *Detector) candidates(existing int) ([]pairdist.IDPair, error) {
	if d.index != nil {
		pairs, _, err := d.index.Probe(d.ctx, existing, d.classifierPartitions())
		return pairs, err
	}
	return allPairs(existing, len(d.feats)), nil
}

// score looks the vectors of recs up in m's score table, as one task of
// Detect does, and resolves them: it returns, per record, the slot of its
// vector's verdict, the verdicts, and how many vectors Classify was sent.
func (m *model) score(recs []pairdist.PairRecord) (slot []int32, verdicts []verdict, classified int, err error) {
	t := scoredTask{missed: make(map[vecKey]int32)}
	for _, r := range recs {
		t.pairs = append(t.pairs, scoredPair{slot: t.slot(m, r.Vec)})
	}
	verdicts, classified, err = m.resolve([]scoredTask{t})
	if err != nil {
		return nil, nil, 0, err
	}
	for _, p := range t.pairs {
		slot = append(slot, p.slot)
	}
	return slot, verdicts, classified, nil
}
