package core

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
)

func TestSaveLoadRoundTripClassifiesIdentically(t *testing.T) {
	const dim = 7
	train := synthData(20, 2000, dim, 51)
	queries, _ := synthQueries(150, dim, 52)

	ctx := testCtx()
	original, err := Train(ctx, train, Config{
		K: 9, B: 10, C: 4, Seed: 53,
		Pruning: &PruningConfig{Clusters: 5, FTheta: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := original.Classify(queries)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := original.Save(&buf); err != nil {
		t.Fatal(err)
	}

	ctx2 := testCtx()
	loaded, err := Load(ctx2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := loaded.Classify(queries)
	if err != nil {
		t.Fatal(err)
	}
	// Both models were laid out by the same constructor, so the loaded one
	// returns the same neighbors to the bit for the same work.
	if err := sameResults(got, want); err != nil {
		t.Errorf("loaded vs original: %v", err)
	}
	wantStats.VirtualTime, gotStats.VirtualTime = 0, 0
	if gotStats != wantStats {
		t.Errorf("loaded stats %+v, original %+v", gotStats, wantStats)
	}
	if loaded.Positives() != original.Positives() {
		t.Errorf("positives %d vs %d", loaded.Positives(), original.Positives())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	ctx := testCtx()
	if _, err := Load(ctx, strings.NewReader("not a gob stream")); err == nil {
		t.Error("expected decode error")
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	const dim = 3
	train := synthData(5, 100, dim, 54)
	ctx := testCtx()
	clf, err := Train(ctx, train, Config{K: 3, B: 2, C: 2, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Gob streams carry field values; corrupt by re-encoding a bumped
	// version through the public API is not possible, so simulate a
	// future version by checking the guard path with a hand-built file.
	// The practical check: a valid stream loads, and loading it twice
	// from the same buffer fails cleanly (stream exhausted).
	if _, err := Load(testCtx(), &buf); err != nil {
		t.Fatalf("first load failed: %v", err)
	}
	if _, err := Load(testCtx(), &buf); err == nil {
		t.Error("expected error on exhausted stream")
	}
}

// TestLoadRejectsCorruptModel hand-corrupts a saved model: a vector of the
// wrong width, a positive filed in a negative block, a block count that
// disagrees with the centers and an unknown version must each fail Load, not
// be carried into the arenas.
func TestLoadRejectsCorruptModel(t *testing.T) {
	const dim = 3
	clf, err := Train(testCtx(), synthData(5, 100, dim, 56), Config{K: 3, B: 2, C: 2, Seed: 57})
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(*modelFile){
		"narrow negative": func(mf *modelFile) { mf.NegBlocks[0][0].Vec = mf.NegBlocks[0][0].Vec[:dim-1] },
		"wide positive":   func(mf *modelFile) { mf.Positives[0].Vec = append(mf.Positives[0].Vec, 0.5) },
		"misfiled label":  func(mf *modelFile) { mf.NegBlocks[1][0].Label = +1 },
		"missing block":   func(mf *modelFile) { mf.NegBlocks = mf.NegBlocks[:1] },
		"future version":  func(mf *modelFile) { mf.Version = modelVersion + 1 },
	} {
		var saved bytes.Buffer
		if err := clf.Save(&saved); err != nil {
			t.Fatal(err)
		}
		var mf modelFile
		if err := gob.NewDecoder(&saved).Decode(&mf); err != nil {
			t.Fatal(err)
		}
		corrupt(&mf)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(mf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(testCtx(), &buf); err == nil {
			t.Errorf("%s: Load accepted the file", name)
		}
	}
}
