package adr

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sample(caseNum string) Report {
	return Report{
		CaseNumber:          caseNum,
		ReportDate:          "2013-10-02",
		CalculatedAge:       46,
		Sex:                 "M",
		ResidentialState:    "NSW",
		OnsetDate:           "30/04/2013 00:00:00",
		ReactionOutcomeDesc: "Recovered",
		GenericNameDesc:     "Atorvastatin",
		MedDRAPTName:        "Rhabdomyolysis",
		MedDRAPTCode:        "PT0001",
		ReportDescription:   "The 46-year-old male subject started treatment with atorvastatin.",
	}
}

func TestSchemaShape(t *testing.T) {
	s := Schema()
	if len(s) != NumFields {
		t.Fatalf("schema has %d fields, want %d", len(s), NumFields)
	}
	selected := 0
	groups := make(map[string]int)
	for _, f := range s {
		if f.Selected {
			selected++
		}
		groups[f.Group]++
	}
	if selected != 7 {
		t.Errorf("selected fields = %d, want 7 (age, sex, state, onset, PT code, generic name, description)", selected)
	}
	wantGroups := map[string]int{
		"Case Details": 2, "Patient Details": 5, "Reaction Information": 14,
		"Medicine Information": 14, "Reporter Details": 2,
	}
	if !reflect.DeepEqual(groups, wantGroups) {
		t.Errorf("groups = %v, want %v", groups, wantGroups)
	}
}

func TestFieldTypeString(t *testing.T) {
	cases := map[FieldType]string{
		Numerical: "numerical", Categorical: "categorical",
		String: "string", Text: "text", FieldType(99): "unknown",
	}
	for ft, want := range cases {
		if got := ft.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ft, got, want)
		}
	}
}

func TestDatabaseAddAndOrder(t *testing.T) {
	db := NewDatabase()
	if err := db.Add(sample("A"), sample("B"), sample("C")); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 3 {
		t.Fatalf("Len = %d", db.Len())
	}
	reports := db.Reports()
	for i, r := range reports {
		if r.ArrivalSeq != i {
			t.Errorf("report %d has ArrivalSeq %d", i, r.ArrivalSeq)
		}
	}
	got, ok := db.Get("B")
	if !ok || got.ArrivalSeq != 1 {
		t.Errorf("Get(B) = %+v, %v", got, ok)
	}
	if _, ok := db.Get("missing"); ok {
		t.Error("Get of missing case should fail")
	}
}

func TestDatabaseRejectsDuplicatesAndEmptyCase(t *testing.T) {
	db := NewDatabase()
	if err := db.Add(sample("A")); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(sample("A")); err == nil {
		t.Error("expected error on duplicate case number")
	}
	if err := db.Add(Report{}); err == nil {
		t.Error("expected error on empty case number")
	}
}

func TestDatabaseCaseNumberAndTail(t *testing.T) {
	db := NewDatabase()
	if err := db.Add(sample("A"), sample("B"), sample("C")); err != nil {
		t.Fatal(err)
	}
	if c, ok := db.CaseNumber(1); !ok || c != "B" {
		t.Errorf("CaseNumber(1) = %q, %v", c, ok)
	}
	for _, i := range []int{-1, 3} {
		if _, ok := db.CaseNumber(i); ok {
			t.Errorf("CaseNumber(%d) reported ok", i)
		}
	}
	tail := db.Tail(1)
	if len(tail) != 2 || tail[0].CaseNumber != "B" || tail[0].ArrivalSeq != 1 || tail[1].ArrivalSeq != 2 {
		t.Errorf("Tail(1) = %v", tail)
	}
	// A snapshot, not a view: writing to it must not reach the database.
	tail[0].CaseNumber = "X"
	if c, _ := db.CaseNumber(1); c != "B" {
		t.Error("Tail returned a view of the database's own slice")
	}
	if got := db.Tail(-5); len(got) != 3 {
		t.Errorf("Tail(-5) len = %d", len(got))
	}
	if got := db.Tail(3); len(got) != 0 {
		t.Errorf("Tail(3) len = %d", len(got))
	}
}

func TestSummarize(t *testing.T) {
	db := NewDatabase()
	a := sample("A")
	a.GenericNameDesc = "Influenza Vaccine,Dtpa Vaccine"
	a.MedDRAPTName = "Vomiting,Pyrexia,Cough"
	a.ReportDate = "2013-07-01"
	b := sample("B")
	b.GenericNameDesc = "Atorvastatin"
	b.MedDRAPTName = "Rhabdomyolysis,Cough"
	b.ReportDate = "2013-12-31"
	if err := db.Add(a, b); err != nil {
		t.Fatal(err)
	}
	s := db.Summarize()
	if s.NumCases != 2 || s.NumFields != 37 {
		t.Errorf("cases/fields = %d/%d", s.NumCases, s.NumFields)
	}
	if s.UniqueDrugs != 3 {
		t.Errorf("unique drugs = %d, want 3", s.UniqueDrugs)
	}
	if s.UniqueADRs != 4 {
		t.Errorf("unique ADRs = %d, want 4", s.UniqueADRs)
	}
	if s.ReportPeriod != "2013-07-01 - 2013-12-31" {
		t.Errorf("period = %q", s.ReportPeriod)
	}
}

func TestSplitMulti(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"A", []string{"A"}},
		{"A,B", []string{"A", "B"}},
		{"A, B ,C", []string{"A", "B", "C"}},
		{",,A,,", []string{"A"}},
	}
	for _, c := range cases {
		if got := SplitMulti(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitMulti(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := []Report{sample("A"), sample("B")}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Error("JSON round trip changed reports")
	}
}

func TestJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Error("expected error for invalid JSON")
	}
}

func TestFormatOnsetDate(t *testing.T) {
	// Table 1 shows "30/04/2013 00:00:00".
	got := FormatOnsetDate(time.Date(2013, 4, 30, 0, 0, 0, 0, time.UTC))
	if got != "30/04/2013 00:00:00" {
		t.Errorf("FormatOnsetDate = %q", got)
	}
}

func TestDatabaseAddAtomic(t *testing.T) {
	db := NewDatabase()
	if err := db.Add(sample("A"), sample("B")); err != nil {
		t.Fatal(err)
	}
	// Mid-batch collision with a stored report: nothing may be absorbed,
	// not even the valid prefix before the colliding report.
	if err := db.Add(sample("C"), sample("A"), sample("D")); err == nil {
		t.Fatal("expected error on mid-batch collision")
	}
	if db.Len() != 2 {
		t.Fatalf("rejected batch changed Len: %d, want 2", db.Len())
	}
	if _, ok := db.Get("C"); ok {
		t.Error("prefix of rejected batch was absorbed")
	}
	// Intra-batch collision, no overlap with stored reports.
	if err := db.Add(sample("E"), sample("E")); err == nil {
		t.Fatal("expected error on intra-batch collision")
	}
	if _, ok := db.Get("E"); ok {
		t.Error("intra-batch colliding report was absorbed")
	}
	// The database still works after rejections.
	if err := db.Add(sample("C"), sample("D")); err != nil {
		t.Fatal(err)
	}
	if got, _ := db.Get("C"); got.ArrivalSeq != 2 {
		t.Errorf("C has ArrivalSeq %d, want 2", got.ArrivalSeq)
	}
}

func TestDatabaseTruncate(t *testing.T) {
	db := NewDatabase()
	if err := db.Add(sample("A"), sample("B"), sample("C"), sample("D")); err != nil {
		t.Fatal(err)
	}
	db.Truncate(2)
	if db.Len() != 2 {
		t.Fatalf("Len after Truncate(2) = %d", db.Len())
	}
	if _, ok := db.Get("C"); ok {
		t.Error("truncated case C still resolvable")
	}
	if _, ok := db.Get("B"); !ok {
		t.Error("surviving case B lost")
	}
	// Truncated case numbers are free again and sequences continue from
	// the truncation point.
	if err := db.Add(sample("C"), sample("E")); err != nil {
		t.Fatal(err)
	}
	if got, _ := db.Get("C"); got.ArrivalSeq != 2 {
		t.Errorf("re-added C has ArrivalSeq %d, want 2", got.ArrivalSeq)
	}
	// Out-of-range truncations are no-ops / clamps.
	db.Truncate(99)
	if db.Len() != 4 {
		t.Errorf("Truncate(99) changed Len to %d", db.Len())
	}
	db.Truncate(-1)
	if db.Len() != 0 {
		t.Errorf("Truncate(-1) left Len %d", db.Len())
	}
}
