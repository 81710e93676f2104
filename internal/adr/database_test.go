package adr

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// storeModel is the plain-slice database the chunked store must behave
// like: reports in arrival order, each case number once.
type storeModel []Report

func (m storeModel) index(caseNumber string) int {
	return slices.IndexFunc(m, func(r Report) bool { return r.CaseNumber == caseNumber })
}

func (m storeModel) summarize() Summary {
	drugs := make(map[string]struct{})
	adrs := make(map[string]struct{})
	var dates []string
	for _, r := range m {
		for _, v := range SplitMulti(r.GenericNameDesc) {
			drugs[v] = struct{}{}
		}
		for _, v := range SplitMulti(r.MedDRAPTName) {
			adrs[v] = struct{}{}
		}
		if r.ReportDate != "" {
			dates = append(dates, r.ReportDate)
		}
	}
	period := ""
	if len(dates) > 0 {
		period = slices.Min(dates) + " - " + slices.Max(dates)
	}
	return Summary{NumCases: len(m), NumFields: NumFields, UniqueDrugs: len(drugs), UniqueADRs: len(adrs), ReportPeriod: period}
}

// TestDatabaseMatchesSliceModel drives the chunked store and a plain slice
// with the same random Adds, rejected Adds and Truncates, walking the size
// across 0, chunkSize-1, chunkSize, chunkSize+1 and three chunks, and
// checks every read against the model after each step.
func TestDatabaseMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 1))
	db := NewDatabase()
	var model storeModel
	serial := 0
	fresh := func() Report {
		serial++
		r := sample(fmt.Sprintf("C%06d", serial))
		r.GenericNameDesc = fmt.Sprintf("Drug%d,Drug%d", serial%37, serial%11)
		r.MedDRAPTName = fmt.Sprintf("ADR%d", serial%53)
		r.ReportDate = fmt.Sprintf("2013-%02d-%02d", 1+serial%12, 1+serial%28)
		if serial%17 == 0 {
			r.ReportDate = ""
		}
		r.ArrivalSeq = -1 // the database assigns it
		return r
	}
	check := func(step string) {
		t.Helper()
		if db.Len() != len(model) {
			t.Fatalf("%s: Len = %d, model holds %d", step, db.Len(), len(model))
		}
		probes := []int{-1, 0, len(model) - 1, len(model), chunkSize - 1, chunkSize, chunkSize + 1}
		for range 8 {
			probes = append(probes, rng.IntN(len(model)+2)-1)
		}
		for _, i := range probes {
			c, ok := db.CaseNumber(i)
			if want := i >= 0 && i < len(model); ok != want || (ok && c != model[i].CaseNumber) {
				t.Fatalf("%s: CaseNumber(%d) = %q, %v", step, i, c, ok)
			}
			if !ok {
				continue
			}
			got, found := db.Get(c)
			if !found || got != model[i] {
				t.Fatalf("%s: Get(%q) = %+v, %v; model %+v", step, c, got, found, model[i])
			}
		}
		// Case numbers that were truncated away or never stored.
		for _, k := range []int{serial, serial + 1, rng.IntN(serial + 1)} {
			c := fmt.Sprintf("C%06d", k)
			if _, found := db.Get(c); found != (model.index(c) >= 0) {
				t.Fatalf("%s: Get(%q) found = %v, model disagrees", step, c, found)
			}
		}
		// The slots past the end of the last chunk hold nothing.
		for _, c := range db.chunks {
			for _, r := range c[len(c):cap(c)] {
				if r != (Report{}) {
					t.Fatalf("%s: a dropped slot still holds %q", step, r.CaseNumber)
				}
			}
		}
	}
	checkAll := func(step string) {
		t.Helper()
		check(step)
		if got := db.Reports(); !slices.Equal(got, model) {
			t.Fatalf("%s: Reports differs from the model (%d vs %d reports)", step, len(got), len(model))
		}
		if got, want := db.Summarize(), model.summarize(); got != want {
			t.Fatalf("%s: Summarize = %+v, model %+v", step, got, want)
		}
	}
	add := func(n int) {
		batch := make([]Report, n)
		for i := range batch {
			batch[i] = fresh()
		}
		if err := db.Add(batch...); err != nil {
			t.Fatalf("Add of %d fresh reports: %v", n, err)
		}
		for _, r := range batch {
			r.ArrivalSeq = len(model)
			model = append(model, r)
		}
	}
	reject := func() {
		batch := []Report{fresh(), fresh()}
		if len(model) > 0 && rng.IntN(2) == 0 {
			batch = append(batch, model[rng.IntN(len(model))]) // collides with a stored case
		} else {
			batch = append(batch, batch[0]) // collides within the batch
		}
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		if err := db.Add(batch...); !errors.Is(err, ErrDuplicateCase) {
			t.Fatalf("colliding Add returned %v, want ErrDuplicateCase", err)
		}
	}
	truncate := func(n int) {
		db.Truncate(n)
		model = model[:min(max(n, 0), len(model))]
	}

	targets := []int{0, chunkSize - 1, chunkSize, chunkSize + 1, 3 * chunkSize, chunkSize + 1,
		chunkSize, chunkSize - 1, 0, 3*chunkSize + 1, 2 * chunkSize, 3 * chunkSize, 0}
	for _, target := range targets {
		for len(model) != target {
			switch {
			case rng.IntN(8) == 0:
				reject()
			case len(model) < target:
				add(min(target-len(model), 1+rng.IntN(300)))
			case rng.IntN(3) == 0:
				truncate(len(model) + rng.IntN(3)) // beyond the end: a no-op
			default:
				truncate(max(target, len(model)-1-rng.IntN(700)))
			}
			check(fmt.Sprintf("walking to %d, at %d", target, len(model)))
		}
		checkAll(fmt.Sprintf("at %d", target))
	}
	truncate(-3)
	checkAll("after Truncate(-3)")
}

// TestDatabaseAddBytesFlat pins that adding a report costs the same bytes
// whatever the database already holds: the store grows a chunk at a time
// and never copies the reports it has. A store that re-copies its whole
// slice as it grows charges each Add several report sizes more.
func TestDatabaseAddBytesFlat(t *testing.T) {
	// One window of chunkSize single-report Adds pays for one chunk, one
	// case-number entry per report and the batch's own bookkeeping.
	bound := float64(unsafe.Sizeof(Report{})) + 512
	perAdd := func(held int) float64 {
		db := NewDatabase()
		for i := range held {
			if err := db.Add(sample(fmt.Sprintf("H%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		batch := make([]Report, chunkSize)
		for i := range batch {
			batch[i] = sample(fmt.Sprintf("N%d", i))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range batch {
			if err := db.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / chunkSize
	}
	for _, held := range []int{1 << 10, 8 << 10} {
		if got := perAdd(held); got > bound {
			t.Errorf("with %d reports held, one-report Add allocates %.0f B, bound %.0f B", held, got, bound)
		}
	}
}
