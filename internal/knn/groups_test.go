package knn

import "testing"

// FuzzGroupSearch drives the grouped search with arbitrary blocks, groupings,
// k and prefilled buffers, and holds it to TopK.Scan over every row bit for
// bit. Each coordinate is one input byte on a grid of step 1/20, so ties and
// equal-sqrt collisions are the common case. The first cut rows are scanned
// into the buffer before the search, the way stage 1 fills it with the own
// block before it searches the positives; the others are split into groups by
// the assign bytes, each group led by its first row. Row IDs descend, so a
// tie met later has the lower index. The committed corpus under
// testdata/fuzz/FuzzGroupSearch seeds all-equal rows, k over the row count,
// one-row groups, and a member tied with the k-th neighbor in a group whose
// bound, without its floating-point allowance, would rule it out.
func FuzzGroupSearch(f *testing.F) {
	f.Add(uint8(6), uint8(9), uint8(3), uint8(4), []byte("\x05\x0a\x0f\x14\x00\x05\x0a\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13\x14\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13\x14\x02\x04\x06\x08\x0a\x0c\x0e\x10\x12\x14"), []byte("\x00\x01\x02\x03\x01\x02"))
	f.Fuzz(func(t *testing.T, dimByte, kByte, groupByte, cutByte uint8, data, assign []byte) {
		dim := int(dimByte%16) + 1
		k := int(kByte % 24)
		if len(data) < dim || len(assign) == 0 {
			return
		}
		coord := func(b byte) float64 { return float64(b%21) / 20 }
		q := make([]float64, dim)
		for d := range q {
			q[d] = coord(data[d])
		}
		data = data[dim:]
		n := len(data) / dim
		all := Block{Vecs: make([]float64, n*dim), IDs: make([]int, n), Label: -1}
		for i := range all.Vecs {
			all.Vecs[i] = coord(data[i])
		}
		for i := range all.IDs {
			all.IDs[i] = n - 1 - i
		}
		cut := int(cutByte) % (n + 1)

		numGroups := int(groupByte)%MaxGroups + 1
		members := make([][]int, numGroups)
		for i := cut; i < n; i++ {
			g := int(assign[(i-cut)%len(assign)]) % numGroups
			members[g] = append(members[g], i)
		}
		var blocks []Block
		for _, rows := range members {
			if len(rows) == 0 {
				continue
			}
			b := Block{Label: -1}
			for _, i := range rows {
				b.Vecs = append(b.Vecs, all.Row(i, dim)...)
				b.IDs = append(b.IDs, all.IDs[i])
			}
			blocks = append(blocks, b)
		}
		groups := NewGroups(blocks)
		if groups.Len() != n-cut {
			t.Fatalf("%d rows grouped, want %d", groups.Len(), n-cut)
		}

		full := NewTopK(k, nil)
		full.Scan(q, all)
		top := NewTopK(k, nil)
		top.Scan(q, Block{Vecs: all.Vecs[:cut*dim], IDs: all.IDs[:cut], Label: -1})
		computed, skipped := groups.Search(&top, q)
		if got, want := top.Neighbors(), full.Neighbors(); !sameNeighbors(got, want) {
			t.Fatalf("dim=%d k=%d n=%d cut=%d groups=%d: search\n got %v\nwant %v", dim, k, n, cut, len(blocks), got, want)
		}
		if int(computed) > groups.Len() || int(skipped) > len(blocks) || computed < int32(len(blocks)) {
			t.Fatalf("dim=%d k=%d n=%d cut=%d groups=%d: %d distances computed, %d groups skipped",
				dim, k, n, cut, len(blocks), computed, skipped)
		}
		if skipped == 0 && int(computed) != groups.Len() {
			t.Fatalf("no group skipped, yet %d of %d distances computed", computed, groups.Len())
		}
	})
}
