package cluster

import (
	"fmt"
	"testing"
	"time"
)

// TestFixedTermsChargedExactly pins the fixed terms of cost.go: an empty
// stage of n attempts charges stageNS + n·taskNS and reports it as its
// scheduler overhead; a fetch of k blocks waits k·blockNS plus its bytes
// over networkMBps; a broadcast charges blockNS plus its bytes per hop.
func TestFixedTermsChargedExactly(t *testing.T) {
	for _, n := range []int{1, 8, 32} {
		c := New(Config{Executors: 4})
		stats, err := c.RunStage("empty", n, func(*TaskContext) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		want := time.Duration(stageNS + n*taskNS)
		if stats.Attempts != n || stats.SchedulerOverhead != want ||
			stats.VirtualDuration != want || c.VirtualElapsed() != want {
			t.Errorf("%d tasks: attempts %d, overhead %v, stage %v, clock %v; want %d attempts charging %v",
				n, stats.Attempts, stats.SchedulerOverhead, stats.VirtualDuration, c.VirtualElapsed(), n, want)
		}
	}

	// k map tasks each write one 500 MB block for reduce partition 0: one
	// reduce task fetches k blocks and k/2 GB, k/2 s at 1000 MB/s.
	const k = 4
	c := New(Config{Executors: 4})
	sh := c.Shuffles().Register()
	if _, err := c.RunStage("map", k, func(tc *TaskContext) error {
		tc.WriteShuffle(sh, 0, []byte{1}, 1, 5e8)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c.Shuffles().MarkDone(sh)
	before := c.VirtualElapsed()
	stats, err := c.RunStage("reduce", 1, func(tc *TaskContext) error {
		_, ferr := tc.FetchShuffle(sh, 0)
		return ferr
	})
	if err != nil {
		t.Fatal(err)
	}
	wait := time.Duration(k/2*1e9 + k*blockNS)
	if stats.ShuffleWaitDuration != wait {
		t.Errorf("fetch of %d blocks waited %v, want %v", k, stats.ShuffleWaitDuration, wait)
	}
	if got, want := c.VirtualElapsed()-before, wait+time.Duration(stageNS+taskNS); got != want {
		t.Errorf("reduce stage charged %v, want %v", got, want)
	}

	// 10 executors: a tree of ceil(log2(11)) = 4 hops.
	for _, bytes := range []int64{0, 1e9} {
		c := New(Config{Executors: 10})
		c.Broadcast(bytes)
		want := 4 * (time.Duration(bytes) + blockNS)
		if got := c.VirtualElapsed(); got != want {
			t.Errorf("broadcast of %d bytes to 10 executors charged %v, want %v", bytes, got, want)
		}
	}
}

// BenchmarkStageOverhead times what the fixed terms of cost.go price, on
// one pool worker so the figures are the engine's serial cost: an empty
// stage of 1, 8 and 32 tasks (stageNS, taskNS), and an n×n shuffle — n map
// tasks each writing one one-record block per reduce partition and counting
// its n records, then n reduce tasks each fetching its n blocks (blockNS,
// after the two stages' terms and the counted records' recordNS).
func BenchmarkStageOverhead(b *testing.B) {
	for _, n := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			c := New(Config{Executors: 8, RealWorkers: 1})
			defer c.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.RunStage("empty", n, func(*TaskContext) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("shuffle=%dx%d", n, n), func(b *testing.B) {
			c := New(Config{Executors: 8, RealWorkers: 1})
			defer c.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sh := c.Shuffles().Register()
				if _, err := c.RunStage("map", n, func(tc *TaskContext) error {
					for r := 0; r < n; r++ {
						tc.WriteShuffle(sh, r, r, 1, 8)
					}
					tc.AddRecords(int64(n))
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				c.Shuffles().MarkDone(sh)
				if _, err := c.RunStage("reduce", n, func(tc *TaskContext) error {
					_, ferr := tc.FetchShuffle(sh, tc.Task())
					return ferr
				}); err != nil {
					b.Fatal(err)
				}
				c.Shuffles().Unregister(sh)
			}
			b.ReportMetric(float64(n*n), "blocks/op")
		})
	}
}
