package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"adrdedup/internal/adr"
	"adrdedup/internal/adrgen"
)

func TestGenSummaryDetectRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reportsPath := filepath.Join(dir, "reports.json")
	truthPath := filepath.Join(dir, "truth.json")

	if err := runGen([]string{
		"-out", reportsPath, "-truth", truthPath,
		"-n", "600", "-dups", "30", "-seed", "5",
	}); err != nil {
		t.Fatal(err)
	}

	reports, err := readReports(reportsPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 600 {
		t.Fatalf("generated %d reports", len(reports))
	}
	tf, err := os.Open(truthPath)
	if err != nil {
		t.Fatal(err)
	}
	var truth []adrgen.GroundTruthRecord
	err = json.NewDecoder(tf).Decode(&truth)
	tf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) != 30 {
		t.Fatalf("generated %d truth pairs", len(truth))
	}

	if err := runSummary([]string{"-db", reportsPath}); err != nil {
		t.Fatal(err)
	}

	// Split into db + batch, build labels from the truth pairs that are
	// fully inside the db plus strided negatives.
	dbPath := filepath.Join(dir, "db.json")
	batchPath := filepath.Join(dir, "batch.json")
	labelsPath := filepath.Join(dir, "labels.json")
	cut := 580
	if err := writeReports(dbPath, reports[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := writeReports(batchPath, reports[cut:]); err != nil {
		t.Fatal(err)
	}
	inDB := make(map[string]bool, cut)
	for _, r := range reports[:cut] {
		inDB[r.CaseNumber] = true
	}
	var labels []labelPair
	for _, tp := range truth {
		if inDB[tp.CaseA] && inDB[tp.CaseB] {
			labels = append(labels, labelPair{CaseA: tp.CaseA, CaseB: tp.CaseB, Duplicate: true})
		}
	}
	isDup := make(map[[2]string]bool)
	for _, tp := range truth {
		isDup[[2]string{tp.CaseA, tp.CaseB}] = true
		isDup[[2]string{tp.CaseB, tp.CaseA}] = true
	}
	for i := 0; i+9 < cut && len(labels) < 1000; i++ {
		a, b := reports[i].CaseNumber, reports[i+9].CaseNumber
		if isDup[[2]string{a, b}] {
			continue
		}
		labels = append(labels, labelPair{CaseA: a, CaseB: b})
	}
	if err := writeJSON(labelsPath, labels); err != nil {
		t.Fatal(err)
	}

	if err := runDetect([]string{
		"-db", dbPath, "-batch", batchPath, "-labels", labelsPath,
		"-k", "7", "-b", "8", "-top", "5",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGenDeterministicFiles(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	ta := filepath.Join(dir, "ta.json")
	tb := filepath.Join(dir, "tb.json")
	for _, args := range [][]string{
		{"-out", a, "-truth", ta, "-n", "100", "-dups", "5", "-seed", "9"},
		{"-out", b, "-truth", tb, "-n", "100", "-dups", "5", "-seed", "9"},
	} {
		if err := runGen(args); err != nil {
			t.Fatal(err)
		}
	}
	ba, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Error("same seed produced different corpus files")
	}
}

func TestDetectMissingFiles(t *testing.T) {
	if err := runDetect([]string{"-db", "/nonexistent.json"}); err == nil {
		t.Error("expected error for missing database file")
	}
	if err := runSummary([]string{"-db", "/nonexistent.json"}); err == nil {
		t.Error("expected error for missing database file")
	}
}

func TestReadJSONHelpers(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "x.json")
	if err := writeJSON(p, []labelPair{{CaseA: "a", CaseB: "b", Duplicate: true}}); err != nil {
		t.Fatal(err)
	}
	var got []labelPair
	if err := readJSON(p, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Duplicate {
		t.Errorf("round trip = %+v", got)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := readJSON(bad, &got); err == nil {
		t.Error("expected error for invalid JSON")
	}
}

func TestWriteReadReports(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "r.json")
	in := []adr.Report{{CaseNumber: "X", CalculatedAge: 30, Sex: "F"}}
	if err := writeReports(p, in); err != nil {
		t.Fatal(err)
	}
	got, err := readReports(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].CaseNumber != "X" {
		t.Errorf("round trip = %+v", got)
	}
	// Sanity: the file is actual JSON.
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var generic []map[string]any
	if err := json.Unmarshal(raw, &generic); err != nil {
		t.Errorf("file is not JSON: %v", err)
	}
}
