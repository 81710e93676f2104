package rdd

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestCollectRoundTripProperty: Parallelize then Collect is the identity for
// any data and any partition count.
func TestCollectRoundTripProperty(t *testing.T) {
	f := func(data []int64, parts uint8) bool {
		ctx := testCtx()
		r := Parallelize(ctx, data, int(parts%16))
		got, err := r.Collect()
		if err != nil {
			return false
		}
		if len(data) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestFilterPartitionProperty: a predicate and its complement partition the
// dataset exactly.
func TestFilterPartitionProperty(t *testing.T) {
	f := func(data []int32, threshold int32) bool {
		ctx := testCtx()
		r := Parallelize(ctx, data, 4)
		below, err := Filter(r, func(x int32) bool { return x < threshold }).Collect()
		if err != nil {
			return false
		}
		above, err := Filter(r, func(x int32) bool { return x >= threshold }).Collect()
		if err != nil {
			return false
		}
		return len(below)+len(above) == len(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestShuffleConservesRecordsProperty: hash partitioning never loses or
// fabricates records, for any key distribution.
func TestShuffleConservesRecordsProperty(t *testing.T) {
	f := func(seed int64, n uint16, keys uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(keys)%50 + 1
		data := make([]Pair[int, int64], int(n)%2000)
		var wantSum int64
		for i := range data {
			v := rng.Int63n(1000)
			data[i] = KV(rng.Intn(k), v)
			wantSum += v
		}
		ctx := testCtx()
		shuffled := PartitionBy(Parallelize(ctx, data, 5), 7)
		vals, err := shuffled.Collect()
		if err != nil {
			return false
		}
		var gotSum int64
		for _, kv := range vals {
			gotSum += kv.Value
		}
		return len(vals) == len(data) && gotSum == wantSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestCacheTransparencyProperty: caching must never change results.
func TestCacheTransparencyProperty(t *testing.T) {
	f := func(data []int16) bool {
		ctx := testCtx()
		plain := Map(Parallelize(ctx, data, 3), func(x int16) int32 { return int32(x) * 2 })
		cached := Map(Parallelize(ctx, data, 3), func(x int16) int32 { return int32(x) * 2 }).Cache()
		a, err := plain.Collect()
		if err != nil {
			return false
		}
		if _, err := cached.Collect(); err != nil { // populate
			return false
		}
		b, err := cached.Collect() // serve from cache
		if err != nil {
			return false
		}
		if len(a) == 0 && len(b) == 0 {
			return true
		}
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
