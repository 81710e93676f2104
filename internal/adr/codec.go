package adr

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON streams reports as a JSON array.
func WriteJSON(w io.Writer, reports []Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}

// ReadJSON parses a JSON array of reports.
func ReadJSON(r io.Reader) ([]Report, error) {
	var out []Report
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("adr: decoding reports: %w", err)
	}
	return out, nil
}
