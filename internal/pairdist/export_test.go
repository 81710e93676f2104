package pairdist

import (
	"adrdedup/internal/adr"
	"adrdedup/internal/intern"
)

// Test-only API: declared in a _test.go file so that only this package's
// tests can reach it.

// FieldNames labels the vector dimensions, in order.
var FieldNames = [Dims]string{
	"calculated age", "sex", "residential state", "onset date",
	"generic name description", "MedDRA PT name", "report description",
}

// ExtractWith preprocesses one report and interns its token sets through it.
func ExtractWith(it *intern.Interner, r adr.Report) Features {
	return tokenise(r).intern(it)
}
