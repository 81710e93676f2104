package cluster

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Bucket-commit idempotence: shuffle blocks are keyed by (map task, write
// seq), so duplicate commits of the same deterministic map output — retried
// attempts, or speculative duplicates racing through the commit window —
// must leave every reduce partition equal to a single write, and fetch
// order must be deterministic regardless of commit interleaving.

func TestShuffleDuplicateCommitIsIdempotent(t *testing.T) {
	cases := []struct {
		name   string
		dups   int // extra commits of the same writes
		shards int
	}{
		{"single-write", 0, 3},
		{"one-duplicate", 1, 3},
		{"many-duplicates", 5, 4},
		{"single-partition", 2, 1},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			writeAll := func(s *ShuffleService, id int) {
				// Three map tasks, each writing multiple sequenced blocks
				// across the reduce partitions.
				for mapTask := 0; mapTask < 3; mapTask++ {
					seq := 0
					for r := 0; r < tt.shards; r++ {
						s.write(id, r, mapTask, seq, 0, []int{mapTask*100 + r}, 8)
						seq++
						if r%2 == 0 { // a second block for even partitions
							s.write(id, r, mapTask, seq, 0, []int{mapTask*100 + r + 50}, 8)
							seq++
						}
					}
				}
			}

			once := newShuffleService(New(Config{}))
			idOnce := once.Register()
			writeAll(once, idOnce)

			dup := newShuffleService(New(Config{}))
			idDup := dup.Register()
			for i := 0; i <= tt.dups; i++ {
				writeAll(dup, idDup)
			}

			for r := 0; r < tt.shards; r++ {
				wantBlocks, wantBytes, _, _, _ := once.fetch(idOnce, r)
				gotBlocks, gotBytes, _, _, _ := dup.fetch(idDup, r)
				if !reflect.DeepEqual(gotBlocks, wantBlocks) {
					t.Errorf("partition %d: duplicate commits changed contents: %v != %v", r, gotBlocks, wantBlocks)
				}
				if gotBytes != wantBytes {
					t.Errorf("partition %d: bytes %d != %d", r, gotBytes, wantBytes)
				}
			}
		})
	}
}

// TestShuffleFetchOrderProperty: for any write set, fetch returns blocks in
// (map task, seq) order — independent of write interleaving and duplicate
// commits — so reduce-side partition contents are a pure function of the
// committed map outputs.
func TestShuffleFetchOrderProperty(t *testing.T) {
	f := func(seed int64, nWrites uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		type w struct {
			reduce, mapTask, seq int
			val                  int
		}
		writes := make([]w, int(nWrites)%24+1)
		for i := range writes {
			writes[i] = w{
				reduce:  rng.Intn(3),
				mapTask: rng.Intn(4),
				seq:     rng.Intn(4),
				val:     rng.Intn(1000),
			}
		}
		// Writes with the same (reduce, mapTask, seq) key collide; keep the
		// last value per key as the reference, mirroring last-write-wins.
		ref := map[[3]int]int{}
		for _, x := range writes {
			ref[[3]int{x.reduce, x.mapTask, x.seq}] = x.val
		}

		s := newShuffleService(New(Config{}))
		id := s.Register()
		for _, x := range writes {
			s.write(id, x.reduce, x.mapTask, x.seq, 0, x.val, 8)
		}
		// Re-commit a shuffled duplicate of the final values (idempotence
		// under re-ordered duplicate commits).
		perm := rng.Perm(len(writes))
		for _, pi := range perm {
			x := writes[pi]
			s.write(id, x.reduce, x.mapTask, x.seq, 0, ref[[3]int{x.reduce, x.mapTask, x.seq}], 8)
		}

		for r := 0; r < 3; r++ {
			var keys [][3]int
			for k := range ref {
				if k[0] == r {
					keys = append(keys, k)
				}
			}
			// Expected order: (mapTask, seq) ascending.
			for i := 0; i < len(keys); i++ {
				for j := i + 1; j < len(keys); j++ {
					if keys[j][1] < keys[i][1] || (keys[j][1] == keys[i][1] && keys[j][2] < keys[i][2]) {
						keys[i], keys[j] = keys[j], keys[i]
					}
				}
			}
			want := make([]any, len(keys))
			for i, k := range keys {
				want[i] = ref[k]
			}
			got, bytes, _, _, _ := s.fetch(id, r)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				return false
			}
			if bytes != int64(len(want))*8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestShuffleUnregisterDropsBlocks: unregistered shuffles free their blocks
// and later fetches see nothing.
func TestShuffleUnregisterDropsBlocks(t *testing.T) {
	s := newShuffleService(New(Config{}))
	id := s.Register()
	s.write(id, 0, 0, 0, 0, "x", 1)
	s.MarkDone(id)
	if !s.Done(id) {
		t.Fatal("MarkDone not visible")
	}
	s.Unregister(id)
	if blocks, bytes, _, _, _ := s.fetch(id, 0); len(blocks) != 0 || bytes != 0 {
		t.Errorf("fetch after Unregister returned %v (%d bytes)", blocks, bytes)
	}
	if s.Done(id) {
		t.Error("Done still true after Unregister")
	}
}
