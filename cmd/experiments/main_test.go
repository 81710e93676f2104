package main

import (
	"io"
	"strings"
	"testing"
)

func TestRunnerDispatchTables(t *testing.T) {
	for _, exhibit := range []string{"table2", "table1", "table3"} {
		if status := run([]string{"-quick", exhibit}, io.Discard, io.Discard); status != 0 {
			t.Errorf("%s: exit status %d", exhibit, status)
		}
	}
}

func TestRunnerRejectsUnknownExhibit(t *testing.T) {
	if status := run([]string{"-quick", "fig99"}, io.Discard, io.Discard); status != 2 {
		t.Errorf("unknown exhibit: exit status %d, want 2", status)
	}
}

// TestRunnerRejectsBadScale: a -scale that is not positive, or that shrinks a
// size below one, is a usage error, reported before any exhibit runs.
func TestRunnerRejectsBadScale(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-scale", "0", "loadbalance"},
		{"-quick", "-scale", "-1", "fig11"},
		{"-quick", "-scale", "NaN", "fig7"},
		{"-quick", "-scale", "0.0005", "fig6"}, // a 1,000-pair quick test set scales to 0
		{"-quick", "-scale", "0.0005", "all"},
	} {
		var stdout, stderr strings.Builder
		if status := run(args, &stdout, &stderr); status != 2 {
			t.Errorf("%v: exit status %d, want 2", args, status)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: an exhibit ran before the usage error:\n%s", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "-scale") || !strings.Contains(stderr.String(), "usage:") {
			t.Errorf("%v: stderr does not name the bad -scale with the usage:\n%s", args, stderr.String())
		}
	}
}
