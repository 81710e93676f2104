package pairdist

import (
	"testing"

	"adrdedup/internal/adr"
	"adrdedup/internal/cluster"
	"adrdedup/internal/intern"
)

// FuzzDistanceMatchesReference fuzzes the seven §4.2 fields of two reports,
// interns both through one interner as the Detector does, and requires
// Distance and the Scorer to equal the string reference bit for bit, in both
// argument orders, and the Scorer to hand its mark table back all zero.
//
// The committed corpus under testdata/fuzz/FuzzDistanceMatchesReference seeds
// empty fields, repeated tokens, an all-stop-word description, unicode and
// CJK text, and one generated duplicate pair per adrgen.DuplicateMode.
func FuzzDistanceMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T,
		ageA int, sexA, stateA, onsetA, drugsA, adrsA, descA string,
		ageB int, sexB, stateB, onsetB, drugsB, adrsB, descB string) {
		a := adr.Report{CalculatedAge: ageA, Sex: sexA, ResidentialState: stateA, OnsetDate: onsetA,
			GenericNameDesc: drugsA, MedDRAPTName: adrsA, ReportDescription: descA}
		b := adr.Report{CalculatedAge: ageB, Sex: sexB, ResidentialState: stateB, OnsetDate: onsetB,
			GenericNameDesc: drugsB, MedDRAPTName: adrsB, ReportDescription: descB}
		it := intern.New()
		fa, fb := ExtractWith(it, a), ExtractWith(it, b)
		assertVecsBitIdentical(t, "Distance(a,b)", Distance(fa, fb), referenceDistance(a, b))
		assertVecsBitIdentical(t, "Distance(b,a)", Distance(fb, fa), referenceDistance(b, a))
		ws := &cluster.WorkerScratch{}
		s := NewScorer(ws)
		var got [Dims]float64
		s.DistanceInto(got[:], &fa, &fb) // merge-scanned
		assertVecsBitIdentical(t, "Scorer(a,b)", got[:], referenceDistance(a, b))
		s.DistanceInto(got[:], &fb, &fa) // marks fa
		assertVecsBitIdentical(t, "Scorer(b,a)", got[:], referenceDistance(b, a))
		s.DistanceInto(got[:], &fa, &fb) // keeps fa marked
		assertVecsBitIdentical(t, "Scorer(a,b) marked", got[:], referenceDistance(a, b))
		s.DistanceInto(got[:], &fb, &fb) // marks fb
		assertVecsBitIdentical(t, "Scorer(b,b)", got[:], referenceDistance(b, b))
		s.DistanceInto(got[:], &fa, &fb) // keeps fb marked
		assertVecsBitIdentical(t, "Scorer(a,b) re-marked", got[:], referenceDistance(a, b))
		s.Release()
		assertMarksZero(t, ws)
	})
}
