package pairdist

import (
	"math"
	"testing"
	"testing/quick"

	"adrdedup/internal/intern"
)

// featFromRaw builds a Features value from fuzz inputs, interning its token
// sets through it — the one interner every feature of a property case shares,
// as the Detector's features share one.
func featFromRaw(it *intern.Interner, age uint8, sex, state, onset bool, drugs, adrs, tokens []uint8) Features {
	word := func(v uint8) string { return string(rune('a' + v%20)) }
	mk := func(vs []uint8) []string {
		out := make([]string, 0, len(vs))
		for _, v := range vs {
			out = append(out, word(v))
		}
		return out
	}
	f := Features{Age: int(age),
		DrugIDs: it.SortedSet(mk(drugs)), ADRIDs: it.SortedSet(mk(adrs)), DescIDs: it.SortedSet(mk(tokens))}
	if sex {
		f.Sex = "M"
	} else {
		f.Sex = "F"
	}
	if state {
		f.State = "NSW"
	} else {
		f.State = "VIC"
	}
	if onset {
		f.OnsetDate = "30/04/2013 00:00:00"
	} else {
		f.OnsetDate = "-"
	}
	return f
}

func TestDistancePropertyRangeSymmetryIdentity(t *testing.T) {
	f := func(age1, age2 uint8, sex1, sex2, st1, st2, on1, on2 bool,
		d1, d2, a1, a2, t1, t2 []uint8) bool {
		it := intern.New()
		fa := featFromRaw(it, age1, sex1, st1, on1, d1, a1, t1)
		fb := featFromRaw(it, age2, sex2, st2, on2, d2, a2, t2)
		ab := Distance(fa, fb)
		ba := Distance(fb, fa)
		self := Distance(fa, fa)
		for d := 0; d < Dims; d++ {
			if ab[d] < 0 || ab[d] > 1 {
				return false
			}
			if math.Float64bits(ab[d]) != math.Float64bits(ba[d]) {
				return false
			}
			if self[d] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
