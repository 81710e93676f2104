package adrgen

import (
	"encoding/json"
	"io"
)

// GroundTruthRecord is the serialized form of one known duplicate pair, as
// a regulator's officers would record it (by case number).
type GroundTruthRecord struct {
	CaseA string `json:"caseA"`
	CaseB string `json:"caseB"`
	Mode  string `json:"mode"`
}

// WriteGroundTruth serializes the corpus's duplicate ground truth as JSON.
// Only case numbers and modes are written; corpus indices are meaningless
// outside the generating process.
func WriteGroundTruth(w io.Writer, duplicates []DuplicatePair) error {
	records := make([]GroundTruthRecord, len(duplicates))
	for i, d := range duplicates {
		records[i] = GroundTruthRecord{CaseA: d.CaseA, CaseB: d.CaseB, Mode: d.Mode.String()}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
