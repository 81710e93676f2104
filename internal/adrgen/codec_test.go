package adrgen

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestGroundTruthRoundTrip(t *testing.T) {
	c := Generate(Config{NumReports: 200, DuplicatePairs: 15, NumDrugs: 40, NumADRs: 60, Seed: 3})
	var buf bytes.Buffer
	if err := WriteGroundTruth(&buf, c.Duplicates); err != nil {
		t.Fatal(err)
	}
	var got []GroundTruthRecord
	if err := json.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 15 {
		t.Fatalf("records = %d", len(got))
	}
	for i, rec := range got {
		d := c.Duplicates[i]
		if rec.CaseA != d.CaseA || rec.CaseB != d.CaseB || rec.Mode != d.Mode.String() {
			t.Errorf("record %d = %+v, want %+v", i, rec, d)
		}
	}
}
