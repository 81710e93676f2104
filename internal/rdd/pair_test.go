package rdd

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"adrdedup/internal/cluster"
)

// sortedSink is a concurrency-safe int accumulator that tasks append to.
type sortedSink struct {
	mu sync.Mutex
	vs []int
}

func (s *sortedSink) add(v int) {
	s.mu.Lock()
	s.vs = append(s.vs, v)
	s.mu.Unlock()
}

func kvPairs(n, keys int) []Pair[int, int] {
	out := make([]Pair[int, int], n)
	for i := range out {
		out[i] = KV(i%keys, i)
	}
	return out
}

func TestPartitionByGroupsKeys(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, kvPairs(100, 10), 5)
	s := PartitionBy(r, 4)
	if s.NumPartitions() != 4 {
		t.Fatalf("partitions = %d", s.NumPartitions())
	}
	// Every key must land wholly inside one partition.
	parts, err := RunJob(s, "inspect", func(_ *cluster.TaskContext, p int, data []Pair[int, int]) (map[int]bool, error) {
		keys := make(map[int]bool)
		for _, kv := range data {
			keys[kv.Key] = true
		}
		return keys, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	owner := make(map[int]int)
	for p, keys := range parts {
		for k := range keys {
			if prev, ok := owner[k]; ok && prev != p {
				t.Errorf("key %d appears in partitions %d and %d", k, prev, p)
			}
			owner[k] = p
		}
	}
	// No records lost.
	all, err := s.Collect()
	if err != nil || len(all) != 100 {
		t.Errorf("count after shuffle = %d, %v", len(all), err)
	}
}

func TestPartitionByIdempotentWhenCoPartitioned(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, kvPairs(50, 5), 3)
	s := PartitionBy(r, 4)
	if PartitionBy(s, 4) != s {
		t.Error("re-partitioning a co-partitioned RDD should be a no-op")
	}
	if PartitionBy(s, 5) == s {
		t.Error("different partition count must produce a new RDD")
	}
}

func TestReduceByKey(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, kvPairs(100, 10), 5)
	got, err := ReduceByKey(r, func(a, b int) int { return a + b }, 3).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d keys, want 10", len(got))
	}
	// Key k holds values k, k+10, ..., k+90: sum = 10k + 450.
	for _, kv := range got {
		want := 10*kv.Key + 450
		if kv.Value != want {
			t.Errorf("key %d sum = %d, want %d", kv.Key, kv.Value, want)
		}
	}
}

func TestReduceByKeyEqualsGroupThenFold(t *testing.T) {
	// Algebraic law: reduceByKey(f) == group by key, then fold f over each
	// group (done sequentially on the driver).
	ctx := testCtx()
	rng := rand.New(rand.NewSource(11))
	data := make([]Pair[int, int], 500)
	for i := range data {
		data[i] = KV(rng.Intn(20), rng.Intn(1000))
	}
	r := Parallelize(ctx, data, 7)
	f := func(a, b int) int { return a + b }

	reduced, err := ReduceByKey(r, f, 4).Collect()
	if err != nil {
		t.Fatal(err)
	}
	grouped := make(map[int][]int)
	for _, kv := range data {
		grouped[kv.Key] = append(grouped[kv.Key], kv.Value)
	}
	want := make(map[int]int)
	for k, vs := range grouped {
		acc := 0
		for _, v := range vs {
			acc = f(acc, v)
		}
		want[k] = acc
	}
	if len(reduced) != len(want) {
		t.Fatalf("key counts differ: %d vs %d", len(reduced), len(want))
	}
	for _, kv := range reduced {
		if want[kv.Key] != kv.Value {
			t.Errorf("key %d: reduceByKey %d != group-fold %d", kv.Key, kv.Value, want[kv.Key])
		}
	}
}

func TestJoin(t *testing.T) {
	ctx := testCtx()
	left := Parallelize(ctx, []Pair[string, int]{
		KV("a", 1), KV("b", 2), KV("a", 3), KV("c", 4),
	}, 2)
	right := Parallelize(ctx, []Pair[string, string]{
		KV("a", "x"), KV("b", "y"), KV("d", "z"),
	}, 2)
	got, err := Join(left, right, 3).Collect()
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		k string
		v int
		w string
	}
	var rows []row
	for _, kv := range got {
		rows = append(rows, row{kv.Key, kv.Value.A, kv.Value.B})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].k != rows[j].k {
			return rows[i].k < rows[j].k
		}
		return rows[i].v < rows[j].v
	})
	want := []row{{"a", 1, "x"}, {"a", 3, "x"}, {"b", 2, "y"}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("join rows = %v, want %v", rows, want)
	}
}

func TestJoinSizeMatchesNestedLoop(t *testing.T) {
	ctx := testCtx()
	rng := rand.New(rand.NewSource(5))
	var left []Pair[int, int]
	var right []Pair[int, int]
	for i := 0; i < 200; i++ {
		left = append(left, KV(rng.Intn(10), i))
	}
	for i := 0; i < 100; i++ {
		right = append(right, KV(rng.Intn(10), i))
	}
	countL := make(map[int]int)
	countR := make(map[int]int)
	for _, kv := range left {
		countL[kv.Key]++
	}
	for _, kv := range right {
		countR[kv.Key]++
	}
	var want int64
	for k, c := range countL {
		want += int64(c * countR[k])
	}
	j := Join(Parallelize(ctx, left, 4), Parallelize(ctx, right, 3), 5)
	rows, err := j.Collect()
	if err != nil || int64(len(rows)) != want {
		t.Errorf("join count = %d, want %d (%v)", len(rows), want, err)
	}
}

// TestJoinOfReducedInputsReusesTheirPartitioning: ReduceByKey's output is
// hash-partitioned, so a Join at the same partition count reads both sides in
// place — two shuffle-map stages, one per ReduceByKey — while a Join at
// another count re-shuffles both sides (four). Either way it equals a
// driver-side map join.
func TestJoinOfReducedInputsReusesTheirPartitioning(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	left := make([]Pair[int, int], 300)
	for i := range left {
		left[i] = KV(rng.Intn(40), rng.Intn(100))
	}
	right := make([]Pair[int, int], 200)
	for i := range right {
		right[i] = KV(rng.Intn(40)+10, rng.Intn(100))
	}
	sums := func(in []Pair[int, int]) map[int]int {
		out := make(map[int]int)
		for _, kv := range in {
			out[kv.Key] += kv.Value
		}
		return out
	}
	sl, sr := sums(left), sums(right)
	want := make(map[int]Tuple2[int, int])
	for k, v := range sl {
		if w, ok := sr[k]; ok {
			want[k] = Tuple2[int, int]{A: v, B: w}
		}
	}
	add := func(a, b int) int { return a + b }
	for _, tc := range []struct{ joinParts, mapStages int }{{4, 2}, {5, 4}} {
		t.Run(fmt.Sprintf("join=%d", tc.joinParts), func(t *testing.T) {
			cl := cluster.New(cluster.Config{Executors: 4, CoresPerExecutor: 2})
			defer cl.Close()
			ctx := NewContext(cl)
			joined := Join(ReduceByKey(Parallelize(ctx, left, 3), add, 4),
				ReduceByKey(Parallelize(ctx, right, 2), add, 4), tc.joinParts)
			rows, err := joined.Collect()
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[int]Tuple2[int, int], len(rows))
			for _, kv := range rows {
				if _, dup := got[kv.Key]; dup {
					t.Errorf("key %d joined twice", kv.Key)
				}
				got[kv.Key] = kv.Value
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("join = %v, want %v", got, want)
			}
			mapStages := 0
			for _, st := range cl.StageHistory() {
				if strings.Contains(st.Name, ".shuffleMap#") {
					mapStages++
				}
			}
			if mapStages != tc.mapStages {
				t.Errorf("ran %d shuffle-map stages, want %d", mapStages, tc.mapStages)
			}
		})
	}
}

func TestHashKeyDistribution(t *testing.T) {
	// Sequential int keys must spread across buckets, not collide into few.
	buckets := make(map[uint64]int)
	const n, b = 10000, 16
	for i := 0; i < n; i++ {
		buckets[hashKey(i)%b]++
	}
	for bucket, c := range buckets {
		if c < n/b/2 || c > n/b*2 {
			t.Errorf("bucket %d has %d of %d keys: poor distribution", bucket, c, n)
		}
	}
	// Strings and default types hash without panicking and are stable.
	if hashKey("abc") != hashKey("abc") {
		t.Error("string hash unstable")
	}
	type custom struct{ X int }
	if hashKey(custom{1}) != hashKey(custom{1}) {
		t.Error("fallback hash unstable")
	}
	if hashKey(true) == hashKey(false) {
		t.Error("bool hash collision")
	}
}

// TestHashKeyIntegerFastPath pins every integer width to the splitmix64
// fast path: the hash must equal splitmix64 of the two's-complement
// sign/zero extension of the key. uint8 and uint16 used to fall through to
// the fmt.Fprintf fallback, hashing differently from (and ~50x slower than)
// the other widths.
func TestHashKeyIntegerFastPath(t *testing.T) {
	neg := int64(-5)
	cases := []struct {
		name string
		key  any
		want uint64
	}{
		{"int", int(-5), splitmix64(uint64(neg))},
		{"int8", int8(-5), splitmix64(uint64(neg))},
		{"int16", int16(-5), splitmix64(uint64(neg))},
		{"int32", int32(-5), splitmix64(uint64(neg))},
		{"int64", int64(-5), splitmix64(uint64(neg))},
		{"uint", uint(200), splitmix64(200)},
		{"uint8", uint8(200), splitmix64(200)},
		{"uint16", uint16(60000), splitmix64(60000)},
		{"uint32", uint32(60000), splitmix64(60000)},
		{"uint64", uint64(60000), splitmix64(60000)},
	}
	for _, c := range cases {
		if got := hashKey(c.key); got != c.want {
			t.Errorf("hashKey(%s %v) = %d, want fast-path splitmix64 value %d",
				c.name, c.key, got, c.want)
		}
	}
	// Same numeric value, different width: buckets must agree, so keyed
	// data partitioned under a uint8 key co-partitions with int keys.
	if hashKey(uint8(42)) != hashKey(int(42)) || hashKey(uint16(42)) != hashKey(int64(42)) {
		t.Error("narrow unsigned widths hash differently from wide integers")
	}
}

// TestHashKeyStringFNVPinned pins the inlined string fast path to the
// stdlib FNV-1a digest and to fixed constants, so string shuffle buckets
// never move across releases (moving them would silently repartition any
// persisted string-keyed layout).
func TestHashKeyStringFNVPinned(t *testing.T) {
	for _, s := range []string{"", "a", "abc", "aspirin", "ADR report", "头痛", "case-123"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := hashKey(s), h.Sum64(); got != want {
			t.Errorf("hashKey(%q) = %d, want stdlib FNV-1a %d", s, got, want)
		}
	}
	if got := hashKey(""); got != 14695981039346656037 {
		t.Errorf("hashKey(\"\") = %d, want FNV-1a offset basis", got)
	}
	if got := hashKey("a"); got != 12638187200555641996 {
		t.Errorf("hashKey(\"a\") = %d, want pinned FNV-1a value", got)
	}
}
