package engine

import (
	"fmt"

	"robustdb/internal/column"
	"robustdb/internal/expr"
	"robustdb/internal/par"
)

// viewColumn returns a zero-copy view of rows [lo, hi) of a column: the
// four dense storage types share their backing arrays (string views share
// the dictionary), and the compressed encodings share their packed blocks
// or runs through window views — range filters scan encoded data in place.
func viewColumn(c column.Column, lo, hi int) (column.Column, error) {
	switch c := c.(type) {
	case *column.Int64Column:
		return column.NewInt64(c.Name(), c.Values[lo:hi]), nil
	case *column.Float64Column:
		return column.NewFloat64(c.Name(), c.Values[lo:hi]), nil
	case *column.DateColumn:
		return column.NewDate(c.Name(), c.Values[lo:hi]), nil
	case *column.StringColumn:
		return column.NewStringFromDict(c.Name(), c.Dict, c.Codes[lo:hi]), nil
	case *column.CompressedInt64Column:
		return c.Slice(lo, hi), nil
	case *column.CompressedDateColumn:
		return c.Slice(lo, hi), nil
	case *column.RLEInt64Column:
		return c.Slice(lo, hi), nil
	default:
		return nil, fmt.Errorf("engine: column %s has no row-range view (%T)", c.Name(), c)
	}
}

// filterView evaluates the predicate over rows [lo, hi) of the batch against
// zero-copy views of the columns it references, and shifts the positions by
// lo into global row numbers. Predicates are row-local (And/Or combine
// positions within a row range), so the result is exactly the slice of the
// whole-batch evaluation that falls inside [lo, hi).
func filterView(b *Batch, pred expr.Predicate, lo, hi int) (column.PosList, error) {
	pos, err := pred.Eval(func(name string) (column.Column, error) {
		c, err := b.Column(name)
		if err != nil {
			return nil, err
		}
		return viewColumn(c, lo, hi)
	})
	if err != nil {
		return nil, err
	}
	for i := range pos {
		pos[i] += int32(lo)
	}
	return pos, nil
}

// FilterRange evaluates the predicate against rows [lo, hi) of the batch and
// returns the qualifying positions as global row numbers. Concatenating
// FilterRange results over a partition of [0, n) in range order reproduces
// Filter over the full batch bit-identically — the property the pipelined
// chunk executor stitches on. Large ranges on a parallel context split into
// morsels that each filter their own view; the per-morsel lists concatenate
// in morsel order.
func FilterRange(ctx *Ctx, b *Batch, pred expr.Predicate, lo, hi int) (column.PosList, error) {
	n := b.NumRows()
	if lo < 0 || hi > n || lo > hi {
		return nil, fmt.Errorf("engine: filter range [%d, %d) outside batch of %d rows", lo, hi, n)
	}
	if !ctx.parallel() || hi-lo <= par.DefaultMorselRows {
		if lo == 0 && hi == n {
			return pred.Eval(b.Column) // the whole batch needs no views
		}
		return filterView(b, pred, lo, hi)
	}
	parts := make([]column.PosList, par.Morsels(hi-lo))
	err := ctx.forEachMorsel(hi-lo, func(mi, mlo, mhi int) error {
		pos, err := filterView(b, pred, lo+mlo, lo+mhi)
		parts[mi] = pos
		return err
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil, nil
	}
	out := make(column.PosList, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Gather materializes the rows addressed by pos into a new column, fanning
// large gathers out over the context's pool for the flat column types. The
// output is identical to c.Gather(pos).
func Gather(ctx *Ctx, c column.Column, pos column.PosList) column.Column {
	n := len(pos)
	if !ctx.parallel() || n <= par.DefaultMorselRows {
		return c.Gather(pos)
	}
	switch c := c.(type) {
	case *column.Int64Column:
		src := c.Values
		out := make([]int64, n)
		ctx.forEachMorselNoErr(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = src[pos[i]]
			}
		})
		return column.NewInt64(c.Name(), out)
	case *column.Float64Column:
		src := c.Values
		out := make([]float64, n)
		ctx.forEachMorselNoErr(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = src[pos[i]]
			}
		})
		return column.NewFloat64(c.Name(), out)
	case *column.DateColumn:
		src := c.Values
		out := make([]int32, n)
		ctx.forEachMorselNoErr(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = src[pos[i]]
			}
		})
		return column.NewDate(c.Name(), out)
	case *column.StringColumn:
		src := c.Codes
		out := make([]int32, n)
		ctx.forEachMorselNoErr(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = src[pos[i]]
			}
		})
		return column.NewStringFromDict(c.Name(), c.Dict, out)
	default:
		return c.Gather(pos)
	}
}

// GatherCtx is Batch.Gather with the columns gathered through the context's
// pool.
func (b *Batch) GatherCtx(ctx *Ctx, pos column.PosList) *Batch {
	cols := make([]column.Column, len(b.cols))
	for i, c := range b.cols {
		cols[i] = Gather(ctx, c, pos)
	}
	return MustNewBatch(cols...)
}
