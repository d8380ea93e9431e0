package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/plan"
	"robustdb/internal/table"
)

// A row digest hashes a result's column names and its rows in order. Cells
// are rendered canonically so a batch and its JSON encoding on the wire
// digest alike: numbers that are exact integers print like the float of the
// same value, everything else prints in the shortest float form.

func numText(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func intText(v int64) string {
	if v > -(1<<53) && v < 1<<53 {
		return numText(float64(v))
	}
	return strconv.FormatInt(v, 10)
}

func digest(cols []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("%q\n", cols))
	for _, r := range rows {
		b.WriteString(strings.Join(r, "|"))
		b.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// batchDigest digests a result batch.
func batchDigest(b *engine.Batch) string {
	cols := b.Columns()
	names := make([]string, len(cols))
	dense := make([]column.Column, len(cols))
	for i, c := range cols {
		names[i] = c.Name()
		dense[i] = column.Materialized(c)
	}
	rows := make([][]string, b.NumRows())
	for r := range rows {
		row := make([]string, len(dense))
		for i, c := range dense {
			switch col := c.(type) {
			case *column.Int64Column:
				row[i] = intText(col.Values[r])
			case *column.Float64Column:
				row[i] = numText(col.Values[r])
			case *column.DateColumn:
				row[i] = intText(int64(col.Values[r]))
			case *column.StringColumn:
				row[i] = strconv.Quote(col.Value(r))
			default:
				row[i] = fmt.Sprintf("?%T", c)
			}
		}
		rows[r] = row
	}
	return digest(names, rows)
}

// wireDigest digests the columns and rows of a /v1/query response decoded
// with json.Decoder.UseNumber.
func wireDigest(cols []string, rows [][]any) (string, error) {
	out := make([][]string, len(rows))
	for r, row := range rows {
		cells := make([]string, len(row))
		for i, v := range row {
			switch x := v.(type) {
			case json.Number:
				if n, err := strconv.ParseInt(string(x), 10, 64); err == nil {
					cells[i] = intText(n)
					continue
				}
				f, err := strconv.ParseFloat(string(x), 64)
				if err != nil {
					return "", err
				}
				cells[i] = numText(f)
			case string:
				cells[i] = strconv.Quote(x)
			default:
				return "", fmt.Errorf("cell %v of type %T", v, v)
			}
		}
		out[r] = cells
	}
	return digest(cols, out), nil
}

// evalPlan executes a plan with the serial bulk kernels — the reference
// path of DB.Query.
func evalPlan(cat *table.Catalog, p *plan.Plan) (*engine.Batch, error) {
	var eval func(n *plan.Node) (*engine.Batch, error)
	eval = func(n *plan.Node) (*engine.Batch, error) {
		var inputs []*engine.Batch
		for _, c := range n.Children {
			in, err := eval(c)
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, in)
		}
		return n.Op.Execute(nil, cat, inputs)
	}
	return eval(p.Root)
}

// referenceDigest evaluates p on the reference path and digests the rows.
func referenceDigest(cat *table.Catalog, p *plan.Plan) (string, error) {
	b, err := evalPlan(cat, p)
	if err != nil {
		return "", err
	}
	return batchDigest(b), nil
}

// kernelClasses are the replay buckets: kernels.replay_host_ms.<class>.
var kernelClasses = []string{"filter", "join", "agg", "sort", "other"}

func kernelClass(c cost.OpClass) string {
	switch c {
	case cost.Selection:
		return "filter"
	case cost.Join:
		return "join"
	case cost.Aggregation:
		return "agg"
	case cost.Sort:
		return "sort"
	}
	return "other"
}

// replay re-executes a plan through plan.Operator.Execute on the given
// kernel context, timing each operator without its children, and adds the
// host time per kernel class to byClass. Each operator is a kernel.op span
// under the replay span id.
func replay(cat *table.Catalog, p *plan.Plan, ctx *engine.Ctx, byClass map[string]time.Duration, rec *recorder, id string) (*engine.Batch, error) {
	var eval func(n *plan.Node) (*engine.Batch, error)
	eval = func(n *plan.Node) (*engine.Batch, error) {
		var inputs []*engine.Batch
		for _, c := range n.Children {
			in, err := eval(c)
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, in)
		}
		start := hostNow()
		out, err := n.Op.Execute(ctx, cat, inputs)
		end := hostNow()
		class := kernelClass(n.Op.Class())
		byClass[class] += end.Sub(start)
		rec.add(id, spanKernel, spanReplay, start, end, class)
		return out, err
	}
	start := hostNow()
	out, err := eval(p.Root)
	rec.add(id, spanReplay, "", start, hostNow(), "")
	return out, err
}

// finite maps NaN and ±Inf to 0 so every metric encodes as JSON.
func finite(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}
