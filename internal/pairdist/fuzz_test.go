package pairdist

import (
	"testing"

	"adrdedup/internal/adr"
	"adrdedup/internal/intern"
)

// FuzzDistanceMatchesReference fuzzes the seven §4.2 fields of two reports,
// interns both through one interner as the Detector does, and requires
// DistanceInto to equal the string reference bit for bit, in both argument
// orders.
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
		var got [Dims]float64
		DistanceInto(got[:], &fa, &fb)
		assertVecsBitIdentical(t, "(a,b)", got[:], referenceDistance(a, b))
		DistanceInto(got[:], &fb, &fa)
		assertVecsBitIdentical(t, "(b,a)", got[:], referenceDistance(b, a))
	})
}
