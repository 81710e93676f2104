package adr

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// ErrDuplicateCase is what Add's error wraps when a case number is already
// in the database or appears twice in the batch.
var ErrDuplicateCase = errors.New("adr: duplicate case number")

// Database is the report database of §3: an arrival-ordered store of ADR
// reports. New reports are appended with increasing arrival sequence numbers;
// duplicate detection checks each arriving batch against all earlier reports
// plus the batch itself (Eq. 3).
//
// Reports are stored in fixed-size chunks, so adding a report never copies
// the ones already held: the store grows by one chunk at a time and its
// memory follows the reports it holds.
//
// Database is safe for concurrent use.
type Database struct {
	mu     sync.RWMutex
	chunks [][]Report // every chunk has capacity chunkSize; all but the last are full
	n      int
	byCase map[string]int
}

// chunkSize is how many reports one chunk holds (about 600 KB).
const chunkSize = 1024

// NewDatabase creates an empty report database.
func NewDatabase() *Database {
	return &Database{byCase: make(map[string]int)}
}

// at returns the stored report with arrival sequence i, which must be in
// range.
func (d *Database) at(i int) *Report {
	return &d.chunks[i/chunkSize][i%chunkSize]
}

// Add appends reports in arrival order, assigning arrival sequence numbers.
// It returns an error wrapping ErrDuplicateCase if a case number collides
// with an existing report or another of the batch — case numbers identify
// records, and a collision means the feed is broken (duplicate *reports* have
// different case numbers; that is the problem this system exists to solve).
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
		_, stored := d.byCase[r.CaseNumber]
		if _, again := inBatch[r.CaseNumber]; stored || again {
			return fmt.Errorf("%w %q", ErrDuplicateCase, r.CaseNumber)
		}
		inBatch[r.CaseNumber] = struct{}{}
	}
	for _, r := range reports {
		if d.n%chunkSize == 0 {
			d.chunks = append(d.chunks, make([]Report, 0, chunkSize))
		}
		r.ArrivalSeq = d.n
		d.byCase[r.CaseNumber] = d.n
		last := len(d.chunks) - 1
		d.chunks[last] = append(d.chunks[last], r)
		d.n++
	}
	return nil
}

// Truncate discards every report with arrival sequence >= n, restoring the
// database to its state before those reports were added. Callers use it to
// roll back an absorbed batch when a later step of an atomic operation
// fails. The discarded reports are cleared from the store, so nothing of
// them stays reachable. Truncating beyond the current length is a no-op.
func (d *Database) Truncate(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n = max(n, 0)
	if n >= d.n {
		return
	}
	for i := n; i < d.n; i++ {
		r := d.at(i)
		delete(d.byCase, r.CaseNumber)
		*r = Report{}
	}
	keep := (n + chunkSize - 1) / chunkSize
	clear(d.chunks[keep:]) // release the chunks left empty
	d.chunks = d.chunks[:keep]
	if keep > 0 {
		d.chunks[keep-1] = d.chunks[keep-1][:n-(keep-1)*chunkSize]
	}
	d.n = n
}

// Len returns the number of stored reports.
func (d *Database) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.n
}

// Reports returns a snapshot of all reports in arrival order.
func (d *Database) Reports() []Report {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]Report, 0, d.n)
	for _, c := range d.chunks {
		out = append(out, c...)
	}
	return out
}

// CaseNumber returns the case number of the report with arrival sequence i
// without copying the report; ok is false when i is out of range.
func (d *Database) CaseNumber(i int) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if i < 0 || i >= d.n {
		return "", false
	}
	return d.at(i).CaseNumber, true
}

// Get returns the report with the given case number.
func (d *Database) Get(caseNumber string) (Report, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	i, ok := d.byCase[caseNumber]
	if !ok {
		return Report{}, false
	}
	return *d.at(i), true
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
	for _, c := range d.chunks {
		for i := range c {
			r := &c[i]
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
	}
	period := ""
	if minDate != "" {
		period = minDate + " - " + maxDate
	}
	return Summary{
		NumCases:     d.n,
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
