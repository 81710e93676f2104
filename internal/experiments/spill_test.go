package experiments

import "testing"

// TestSpillOutputIdentical is the exhibit's acceptance test: the budgeted
// run must spill in all three tiers the classification pipeline presses —
// the block cache, the shuffle and the join build side — (otherwise the
// scenario is vacuous) and still return bit-identical results; Spill itself
// errors on any score or label that differs, so a nil error plus non-zero
// spill counters is the whole property. It doubles as the CI memory-pressure
// smoke.
func TestSpillOutputIdentical(t *testing.T) {
	rows, err := Spill(SpillParams{records: 1500, partitions: 8, seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Budgeted {
			if r.BlockSpills == 0 || r.ShuffleSpills == 0 || r.JoinSpills == 0 || r.SpilledBytes == 0 {
				t.Errorf("budgeted run left a tier unspilled (block %d, shuffle %d, join %d events, %d bytes); working set under budget?",
					r.BlockSpills, r.ShuffleSpills, r.JoinSpills, r.SpilledBytes)
			}
		} else {
			if r.SpillEvents != 0 || r.SpilledBytes != 0 {
				t.Errorf("unbounded run has spill accounting: %+v", r)
			}
		}
		if r.Candidates == 0 {
			t.Errorf("row %+v classified no candidates", r)
		}
	}
	if ratio := SpillOverhead(rows); ratio < 1 {
		t.Errorf("spill overhead ratio %.3f < 1: spilling made the run faster than RAM", ratio)
	}
}

// TestSpillCountsRepeatAtOneWorker: with one task computing at a time the
// exhibit's spill accounting is a function of the seed. Two runs must agree
// on every tier's spill count, on the spilled bytes and on the virtual time
// they cost. With more workers
// neither holds: block-tier spills and gob's process-wide type numbering both
// follow task interleaving.
func TestSpillCountsRepeatAtOneWorker(t *testing.T) {
	var runs [2]SpillRow
	for i := range runs {
		rows, err := Spill(SpillParams{records: 1500, partitions: 8, seed: 3}, 1)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = rows[1]
	}
	a, b := runs[0], runs[1]
	if a.PressureEvents == 0 {
		t.Error("the 16 KiB budget committed no pressure event")
	}
	if a != b {
		t.Errorf("budgeted runs at one worker differ:\n%+v\n%+v", a, b)
	}
}

// BenchmarkSpillOverhead runs the memory-pressure exhibit under
// `go test -bench`: the reported ratio is the budgeted/unbounded virtual makespan
// of the identical classification pipeline, alongside the spilled volume.
func BenchmarkSpillOverhead(b *testing.B) {
	var rows []SpillRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = Spill(SpillParams{records: 4000, partitions: 16, seed: 3}, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	var unbounded, budgeted, spilledMB, spillEvents float64
	for _, r := range rows {
		if r.Budgeted {
			budgeted = r.ExecutionTime.Seconds()
			spilledMB = float64(r.SpilledBytes) / (1 << 20)
			spillEvents = float64(r.SpillEvents)
		} else {
			unbounded = r.ExecutionTime.Seconds()
		}
	}
	b.ReportMetric(SpillOverhead(rows), "overhead-ratio")
	b.ReportMetric(unbounded, "makespan-unbounded-s")
	b.ReportMetric(budgeted, "makespan-budgeted-s")
	b.ReportMetric(spilledMB, "spilled-MB")
	b.ReportMetric(spillEvents, "spill-events")
}
