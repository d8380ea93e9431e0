package engine

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"robustdb/internal/column"
	"robustdb/internal/expr"
	"robustdb/internal/par"
)

// sevenTypeBatch builds one batch holding every column type the range view
// supports: plain int64, float64, date and dictionary string columns, the
// bit-packed int64 and date encodings, and an RLE int64 column with real
// runs.
func sevenTypeBatch(t *testing.T, seed int64, n int) *Batch {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	vals := make([]float64, n)
	dates := make([]int32, n)
	cities := make([]string, n)
	grps := make([]int64, n)
	names := []string{"ada", "bern", "caen", "dijon", "essen"}
	for i := range keys {
		keys[i] = int64(rng.Intn(500))
		vals[i] = rng.Float64()*200 - 100
		dates[i] = int32(20200101 + rng.Intn(365))
		cities[i] = names[rng.Intn(len(names))]
		grps[i] = int64((i >> 6) % 13) // 64-long runs
	}
	b, err := NewBatch(
		column.NewInt64("k", keys),
		column.NewFloat64("v", vals),
		column.NewDate("d", dates),
		column.NewString("city", cities),
		column.CompressInt64(column.NewInt64("ck", keys)),
		column.CompressDate(column.NewDate("cd", dates)),
		column.CompressRLE("grp", grps),
	)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// randomPartition cuts [0, n) into consecutive ranges at random points,
// including empty ranges and ranges longer than one morsel.
func randomPartition(rng *rand.Rand, n int) [][2]int {
	cuts := []int{0, n}
	for i := rng.Intn(8); i > 0; i-- {
		cuts = append(cuts, rng.Intn(n+1))
	}
	sort.Ints(cuts)
	parts := make([][2]int, 0, len(cuts)-1)
	for i := 1; i < len(cuts); i++ {
		parts = append(parts, [2]int{cuts[i-1], cuts[i]})
	}
	return parts
}

// TestFilterRangePartitionsMatchFilter: concatenating FilterRange over any
// partition of [0, n) in range order equals Filter over the whole batch, for
// a predicate on each of the seven column types, at every worker count —
// the exactness the pipelined chunk executor stitches on.
func TestFilterRangePartitionsMatchFilter(t *testing.T) {
	n := 3*par.DefaultMorselRows + 123
	b := sevenTypeBatch(t, 3, n)
	preds := []expr.Predicate{
		expr.NewCmp("k", expr.LT, int64(120)),
		expr.NewCmp("v", expr.GE, -50.0),
		expr.NewBetween("d", int32(20200150), int32(20200300)),
		expr.NewCmp("city", expr.NE, "caen"),
		expr.NewBetween("ck", int64(100), int64(350)),
		expr.NewCmp("cd", expr.LT, int32(20200200)),
		expr.NewCmp("grp", expr.EQ, int64(4)),
		expr.NewAnd(
			expr.NewCmp("ck", expr.GE, int64(40)),
			expr.NewOr(expr.NewCmp("grp", expr.LE, int64(6)), expr.NewCmp("city", expr.EQ, "ada")),
		),
	}
	rng := rand.New(rand.NewSource(17))
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		ctx := ctxFor(w)
		for _, pred := range preds {
			want, err := Filter(nil, b, pred)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || len(want) == n {
				t.Fatalf("%s selects %d of %d rows; too loose or tight to test anything", pred, len(want), n)
			}
			for trial := 0; trial < 8; trial++ {
				parts := randomPartition(rng, n)
				var got column.PosList
				for _, r := range parts {
					pos, err := FilterRange(ctx, b, pred, r[0], r[1])
					if err != nil {
						t.Fatalf("workers=%d %s %v: %v", w, pred, r, err)
					}
					got = append(got, pos...)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("workers=%d %s over %v: %d positions, want %d (or contents differ)",
						w, pred, parts, len(got), len(want))
				}
			}
		}
	}
}

// opaqueColumn hides a column's concrete type, standing in for a column type
// without a row-range view.
type opaqueColumn struct{ column.Column }

// TestFilterRangeErrors: a range outside the batch and a column type without
// a view fail with an error instead of silently filtering something else.
func TestFilterRangeErrors(t *testing.T) {
	b := sevenTypeBatch(t, 3, 100)
	pred := expr.NewCmp("k", expr.LT, int64(120))
	for _, r := range [][2]int{{-1, 10}, {0, 101}, {60, 50}} {
		if _, err := FilterRange(nil, b, pred, r[0], r[1]); err == nil {
			t.Errorf("range %v of a 100-row batch: no error", r)
		}
	}
	ob, err := NewBatch(opaqueColumn{column.NewInt64("k", make([]int64, 100))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FilterRange(nil, ob, pred, 10, 20); err == nil {
		t.Error("range over a column without a view: no error")
	}
}
