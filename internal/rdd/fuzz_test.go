package rdd

import (
	"fmt"
	"hash/fnv"
	"testing"

	"adrdedup/internal/cluster"
)

// FuzzHashKey fuzzes the shuffle key hasher across every supported key kind.
// Invariants, for any input:
//
//   - the derived bucket is always in [0, numPartitions);
//   - hashing is stable: the same key hashes identically across calls;
//   - every integer width rides the splitmix64 fast path and agrees with
//     the 64-bit hash of the same numeric value (two's-complement
//     sign/zero extension), which pins the uint8/uint16 fast-path fix;
//   - the inlined string fast path agrees byte-for-byte with the stdlib
//     hash/fnv FNV-1a digest, which pins the allocation-free string loop.
//
// The committed corpus under testdata/fuzz/FuzzHashKey seeds boundary
// values (zero, sign bits, width maxima) and string keys.
func FuzzHashKey(f *testing.F) {
	f.Add(uint64(0), "", uint16(1))
	f.Add(uint64(255), "aspirin", uint16(7))
	f.Add(uint64(1)<<63, "ADR report", uint16(64))
	f.Add(^uint64(0), "dizziness", uint16(1024))
	f.Fuzz(func(t *testing.T, x uint64, s string, np uint16) {
		numPartitions := int(np%1024) + 1
		keys := []any{
			int(x), int8(x), int16(x), int32(x), int64(x),
			uint(x), uint8(x), uint16(x), uint32(x), x,
			s, x%2 == 0,
		}
		for _, k := range keys {
			h := hashKey(k)
			if again := hashKey(k); again != h {
				t.Errorf("hashKey(%T %v) unstable: %d then %d", k, k, h, again)
			}
			bucket := int(h % uint64(numPartitions))
			if bucket < 0 || bucket >= numPartitions {
				t.Errorf("hashKey(%T %v) bucket %d outside [0,%d)", k, k, bucket, numPartitions)
			}
		}
		// Width agreement: a narrow integer key must hash like the int64 /
		// uint64 carrying the same numeric value.
		signed := []struct {
			name string
			got  uint64
			wide int64
		}{
			{"int8", hashKey(int8(x)), int64(int8(x))},
			{"int16", hashKey(int16(x)), int64(int16(x))},
			{"int32", hashKey(int32(x)), int64(int32(x))},
			{"int", hashKey(int(x)), int64(int(x))},
		}
		for _, c := range signed {
			if want := hashKey(c.wide); c.got != want {
				t.Errorf("hashKey(%s %d) = %d, want int64-consistent %d", c.name, c.wide, c.got, want)
			}
		}
		unsigned := []struct {
			name string
			got  uint64
			wide uint64
		}{
			{"uint8", hashKey(uint8(x)), uint64(uint8(x))},
			{"uint16", hashKey(uint16(x)), uint64(uint16(x))},
			{"uint32", hashKey(uint32(x)), uint64(uint32(x))},
			{"uint", hashKey(uint(x)), uint64(uint(x))},
		}
		for _, c := range unsigned {
			if want := hashKey(c.wide); c.got != want {
				t.Errorf("hashKey(%s %d) = %d, want uint64-consistent %d", c.name, c.wide, c.got, want)
			}
		}
		// String stability across releases: the inlined loop must equal
		// the stdlib FNV-1a digest for arbitrary (including invalid-UTF-8)
		// byte content.
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := hashKey(s), h.Sum64(); got != want {
			t.Errorf("hashKey(%q) = %d, want stdlib FNV-1a %d", s, got, want)
		}
	})
}

// FuzzKeyedOpsMatchOracle fuzzes the three keyed shuffles the engine keeps
// against driver-side oracles, for any record multiset and any input and
// output partition counts. Each byte b at index i becomes the record
// (b%11, i). Invariants:
//
//   - PartitionBy conserves the record multiset and puts every record in
//     bucket hashKey(key) % numPartitions;
//   - ReduceByKey(+) yields each key once, with the driver's per-key sum;
//   - Join of the records with themselves yields Σ count(key)² rows, each
//     pairing two records of the same key.
func FuzzKeyedOpsMatchOracle(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Add([]byte{0}, uint8(4), uint8(3))
	f.Add([]byte{7, 7, 7, 7}, uint8(2), uint8(5))
	f.Add([]byte("aspirin"), uint8(3), uint8(2))
	f.Add([]byte("nausea and dizziness"), uint8(7), uint8(1))
	f.Add([]byte{0, 11, 22, 33, 44, 55}, uint8(6), uint8(6))
	f.Add([]byte{255, 1, 254, 2, 253, 3}, uint8(1), uint8(8))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(5), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, inParts, outParts uint8) {
		if len(data) > 256 {
			data = data[:256]
		}
		in := int(inParts%8) + 1
		out := int(outParts%8) + 1
		records := make([]Pair[int, int], len(data))
		counts := make(map[int]int)
		sums := make(map[int]int)
		for i, b := range data {
			k := int(b % 11)
			records[i] = KV(k, i)
			counts[k]++
			sums[k] += i
		}
		cl := cluster.New(cluster.Config{Executors: 3})
		defer cl.Close()
		src := Parallelize(NewContext(cl), records, in)

		buckets, err := RunJob(PartitionBy(src, out), "buckets",
			func(_ *cluster.TaskContext, p int, part []Pair[int, int]) ([]Pair[int, int], error) {
				for _, kv := range part {
					if b := int(hashKey(kv.Key) % uint64(out)); b != p {
						t.Errorf("key %d in partition %d, want bucket %d", kv.Key, p, b)
					}
				}
				return part, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		var shuffled []Pair[int, int]
		for _, part := range buckets {
			shuffled = append(shuffled, part...)
		}
		if got, want := fmt.Sprint(sortedPairs(shuffled)), fmt.Sprint(sortedPairs(records)); got != want {
			t.Errorf("PartitionBy changed the records:\n got %s\nwant %s", got, want)
		}

		reduced, err := ReduceByKey(src, func(a, b int) int { return a + b }, out).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(reduced) != len(sums) {
			t.Errorf("ReduceByKey yielded %d keys, want %d", len(reduced), len(sums))
		}
		for _, kv := range reduced {
			if kv.Value != sums[kv.Key] {
				t.Errorf("ReduceByKey key %d = %d, want %d", kv.Key, kv.Value, sums[kv.Key])
			}
		}

		joined, err := Join(src, src, out).Collect()
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, c := range counts {
			want += c * c
		}
		if len(joined) != want {
			t.Errorf("Join yielded %d rows, want %d", len(joined), want)
		}
		for _, kv := range joined {
			a, b := kv.Value.A, kv.Value.B
			if int(data[a]%11) != kv.Key || int(data[b]%11) != kv.Key {
				t.Errorf("Join paired records %d and %d under key %d", a, b, kv.Key)
			}
		}
	})
}
