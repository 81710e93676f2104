package adr

import (
	"fmt"
	"strings"
	"sync"
)

// Database is the report database of §3: an arrival-ordered store of ADR
// reports. New reports are appended with increasing arrival sequence numbers;
// duplicate detection checks each arriving batch against all earlier reports
// plus the batch itself (Eq. 3).
//
// Database is safe for concurrent use.
type Database struct {
	mu      sync.RWMutex
	reports []Report
	byCase  map[string]int
}

// NewDatabase creates an empty report database.
func NewDatabase() *Database {
	return &Database{byCase: make(map[string]int)}
}

// Add appends reports in arrival order, assigning arrival sequence numbers.
// It returns an error if a case number collides with an existing report —
// case numbers identify records, and a collision means the feed is broken
// (duplicate *reports* have different case numbers; that is the problem this
// system exists to solve).
//
// Add is atomic: the whole batch is validated before anything is stored, so
// a rejected batch leaves the database exactly as it was — no prefix of the
// batch is absorbed.
func (d *Database) Add(reports ...Report) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	inBatch := make(map[string]struct{}, len(reports))
	for _, r := range reports {
		if r.CaseNumber == "" {
			return fmt.Errorf("adr: report without case number")
		}
		if _, exists := d.byCase[r.CaseNumber]; exists {
			return fmt.Errorf("adr: duplicate case number %q", r.CaseNumber)
		}
		if _, exists := inBatch[r.CaseNumber]; exists {
			return fmt.Errorf("adr: duplicate case number %q", r.CaseNumber)
		}
		inBatch[r.CaseNumber] = struct{}{}
	}
	for _, r := range reports {
		r.ArrivalSeq = len(d.reports)
		d.byCase[r.CaseNumber] = len(d.reports)
		d.reports = append(d.reports, r)
	}
	return nil
}

// Truncate discards every report with arrival sequence >= n, restoring the
// database to its state before those reports were added. Callers use it to
// roll back an absorbed batch when a later step of an atomic operation
// fails. Truncating beyond the current length is a no-op.
func (d *Database) Truncate(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n >= len(d.reports) {
		return
	}
	for _, r := range d.reports[n:] {
		delete(d.byCase, r.CaseNumber)
	}
	d.reports = d.reports[:n]
}

// Len returns the number of stored reports.
func (d *Database) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.reports)
}

// Reports returns a snapshot of all reports in arrival order.
func (d *Database) Reports() []Report {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]Report, len(d.reports))
	copy(out, d.reports)
	return out
}

// CaseNumber returns the case number of the report with arrival sequence i
// without copying the report; ok is false when i is out of range.
func (d *Database) CaseNumber(i int) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if i < 0 || i >= len(d.reports) {
		return "", false
	}
	return d.reports[i].CaseNumber, true
}

// Tail returns a snapshot of the reports with arrival sequence >= from — the
// batch just added, without copying the database it was added to.
func (d *Database) Tail(from int) []Report {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if from < 0 {
		from = 0
	}
	if from >= len(d.reports) {
		return nil
	}
	out := make([]Report, len(d.reports)-from)
	copy(out, d.reports[from:])
	return out
}

// Get returns the report with the given case number.
func (d *Database) Get(caseNumber string) (Report, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	i, ok := d.byCase[caseNumber]
	if !ok {
		return Report{}, false
	}
	return d.reports[i], true
}

// Summary holds the corpus statistics the paper reports in Table 3.
type Summary struct {
	NumCases     int
	NumFields    int
	UniqueDrugs  int
	UniqueADRs   int
	ReportPeriod string
}

// Summarize computes Table 3-style statistics over the stored reports.
// Multi-valued drug and ADR fields are split on commas before counting
// unique values.
func (d *Database) Summarize() Summary {
	d.mu.RLock()
	defer d.mu.RUnlock()
	drugs := make(map[string]struct{})
	adrs := make(map[string]struct{})
	minDate, maxDate := "", ""
	for _, r := range d.reports {
		for _, v := range SplitMulti(r.GenericNameDesc) {
			drugs[v] = struct{}{}
		}
		for _, v := range SplitMulti(r.MedDRAPTName) {
			adrs[v] = struct{}{}
		}
		if r.ReportDate != "" {
			if minDate == "" || r.ReportDate < minDate {
				minDate = r.ReportDate
			}
			if r.ReportDate > maxDate {
				maxDate = r.ReportDate
			}
		}
	}
	period := ""
	if minDate != "" {
		period = minDate + " - " + maxDate
	}
	return Summary{
		NumCases:     len(d.reports),
		NumFields:    NumFields,
		UniqueDrugs:  len(drugs),
		UniqueADRs:   len(adrs),
		ReportPeriod: period,
	}
}

// SplitMulti splits a comma-separated multi-valued field into trimmed
// values, dropping empties.
func SplitMulti(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if v := strings.TrimSpace(part); v != "" {
			out = append(out, v)
		}
	}
	return out
}
