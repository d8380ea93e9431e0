package plan

import (
	"fmt"

	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/table"
)

// FetchOp is late materialization: it gathers base-table columns at the row
// positions its child produced (a "<table>.rowid" column, as emitted by a
// projection-free Scan). This is the final materialization step of a
// positional selection pipeline — the "select *" of the paper's
// micro-benchmarks — and reads base columns, so it participates in caching
// and data-driven placement like a scan.
type FetchOp struct {
	Table string
	Cols  []string
}

// Fetch builds a late-materialization node over child.
func Fetch(child *Node, tbl string, cols ...string) *Node {
	return NewNode(&FetchOp{Table: tbl, Cols: cols}, child)
}

// Class returns cost.Materialize.
func (o *FetchOp) Class() cost.OpClass { return cost.Materialize }

// Name describes the fetch.
func (o *FetchOp) Name() string { return fmt.Sprintf("fetch(%s%v)", o.Table, o.Cols) }

// BaseColumns returns the gathered base columns.
func (o *FetchOp) BaseColumns() []table.ColumnID {
	out := make([]table.ColumnID, len(o.Cols))
	for i, c := range o.Cols {
		out[i] = table.MakeColumnID(o.Table, c)
	}
	return out
}

// Execute gathers the base columns at the child's row ids.
func (o *FetchOp) Execute(ectx *engine.Ctx, cat *table.Catalog, inputs []*engine.Batch) (*engine.Batch, error) {
	if len(inputs) != 1 {
		return nil, fmt.Errorf("fetch: want 1 input, got %d", len(inputs))
	}
	t, err := cat.Table(o.Table)
	if err != nil {
		return nil, err
	}
	pos, err := rowidPositions(inputs[0], t)
	if err != nil {
		return nil, fmt.Errorf("fetch: %w", err)
	}
	return gatherColumns(ectx, t, o.Cols, pos)
}

// IntersectOp intersects two sorted "<table>.rowid" position columns — the
// conjunction operator of a positional selection pipeline.
type IntersectOp struct {
	Table string
}

// Intersect builds a rowid-intersection node over two children.
func Intersect(left, right *Node, tbl string) *Node {
	return NewNode(&IntersectOp{Table: tbl}, left, right)
}

// Class returns cost.Selection.
func (o *IntersectOp) Class() cost.OpClass { return cost.Selection }

// Name describes the intersection.
func (o *IntersectOp) Name() string { return fmt.Sprintf("intersect(%s)", o.Table) }

// BaseColumns returns nil.
func (o *IntersectOp) BaseColumns() []table.ColumnID { return nil }

// Execute intersects the two rowid lists.
func (o *IntersectOp) Execute(_ *engine.Ctx, cat *table.Catalog, inputs []*engine.Batch) (*engine.Batch, error) {
	if len(inputs) != 2 {
		return nil, fmt.Errorf("intersect: want 2 inputs, got %d", len(inputs))
	}
	t, err := cat.Table(o.Table)
	if err != nil {
		return nil, err
	}
	lists := make([]column.PosList, 2)
	for i, in := range inputs {
		if lists[i], err = rowidPositions(in, t); err != nil {
			return nil, fmt.Errorf("intersect: %w", err)
		}
	}
	return rowidBatch(o.Table, lists[0].Intersect(lists[1]))
}
