package placement

import (
	"math/rand"
	"testing"
	"testing/quick"

	"robustdb/internal/column"
	"robustdb/internal/exec"
	"robustdb/internal/table"
)

func testCatalog() *table.Catalog {
	cat := table.NewCatalog()
	mkTable := func(name string, rows int) {
		cat.MustRegister(table.MustNew(name, column.NewInt64("x", make([]int64, rows))))
	}
	mkTable("a", 100) // a.x: 800 B
	mkTable("b", 200) // b.x: 1600 B
	mkTable("c", 50)  // c.x: 400 B
	mkTable("d", 400) // d.x: 3200 B
	return cat
}

func TestPolicyString(t *testing.T) {
	if LFU.String() != "lfu" || LRU.String() != "lru" {
		t.Fatal("labels wrong")
	}
}

func TestTrackerCounts(t *testing.T) {
	tr := NewTracker()
	tr.Record("a.x", "b.x")
	tr.Record("a.x")
	if tr.Count("a.x") != 2 || tr.Count("b.x") != 1 || tr.Count("c.x") != 0 {
		t.Fatal("counts wrong")
	}
}

func TestDesiredLFUPacking(t *testing.T) {
	cat := testCatalog()
	m := NewManager(LFU)
	// access counts: a=3, b=2, c=1
	m.Tracker.Record("a.x", "b.x", "c.x")
	m.Tracker.Record("a.x", "b.x")
	m.Tracker.Record("a.x")

	// Budget for a (800) + c (400) but not b (1600): Algorithm 1 skips b
	// (line 5) and still places c.
	got := m.Desired(cat, 1300)
	if len(got) != 2 || got[0] != "a.x" || got[1] != "c.x" {
		t.Fatalf("desired = %v", got)
	}
	// Large budget: everything accessed, by count descending.
	got = m.Desired(cat, 1<<20)
	if len(got) != 3 || got[0] != "a.x" || got[1] != "b.x" || got[2] != "c.x" {
		t.Fatalf("desired = %v", got)
	}
	// Unaccessed columns (t.d) are never placed.
	for _, id := range got {
		if id == "d.x" {
			t.Fatal("unaccessed column placed")
		}
	}
	// Zero budget: nothing fits.
	if got = m.Desired(cat, 0); len(got) != 0 {
		t.Fatalf("zero budget should place nothing, got %v", got)
	}
}

func TestDesiredLRUOrdering(t *testing.T) {
	cat := testCatalog()
	m := NewManager(LRU)
	m.Tracker.Record("a.x") // oldest
	m.Tracker.Record("b.x")
	m.Tracker.Record("c.x") // most recent
	got := m.Desired(cat, 1<<20)
	if len(got) != 3 || got[0] != "c.x" || got[1] != "b.x" || got[2] != "a.x" {
		t.Fatalf("LRU desired = %v", got)
	}
}

func TestDesiredSkipsUnknownColumns(t *testing.T) {
	cat := testCatalog()
	m := NewManager(LFU)
	m.Tracker.Record("gone.x", "a.x")
	got := m.Desired(cat, 1<<20)
	if len(got) != 1 || got[0] != "a.x" {
		t.Fatalf("desired = %v", got)
	}
}

func TestDesiredDeterministicTieBreak(t *testing.T) {
	cat := testCatalog()
	m := NewManager(LFU)
	m.Tracker.Record("b.x", "a.x", "c.x") // all count 1, same clock
	got := m.Desired(cat, 1<<20)
	if got[0] != "a.x" || got[1] != "b.x" || got[2] != "c.x" {
		t.Fatalf("tie break not by id: %v", got)
	}
}

func TestApplyInstant(t *testing.T) {
	cat := testCatalog()
	e := exec.New(cat, exec.Config{CacheBytes: 1 << 20, HeapBytes: 1 << 20})
	m := NewManager(LFU)
	m.Tracker.Record("a.x", "b.x")

	// Pre-state: c cached (stale), should be evicted by the new placement.
	e.Cache.Insert("c.x", 400)
	desired := m.Desired(e.Cat, 1<<20)
	if err := m.ApplyInstant(e, desired, true); err != nil {
		t.Fatal(err)
	}
	if !e.Cache.Contains("a.x") || !e.Cache.Contains("b.x") {
		t.Fatal("desired columns not cached")
	}
	if e.Cache.Contains("c.x") {
		t.Fatal("stale column not evicted")
	}
	if !e.Cache.Pinned("a.x") || !e.Cache.Pinned("b.x") {
		t.Fatal("placed columns not pinned")
	}
	if e.Metrics.PlacementTransfers.Load() != 2 {
		t.Fatalf("placement transfers = %d", e.Metrics.PlacementTransfers.Load())
	}
	// Re-apply with a changed desired set: unpin + evict the dropped one.
	m2 := NewManager(LFU)
	m2.Tracker.Record("a.x")
	if err := m2.ApplyInstant(e, m2.Desired(e.Cat, 1<<20), true); err != nil {
		t.Fatal(err)
	}
	if e.Cache.Contains("b.x") {
		t.Fatal("dropped column must be evicted even when pinned before")
	}
	// Unknown column in desired set is an error.
	if err := m.ApplyInstant(e, []table.ColumnID{"gone.x"}, true); err == nil {
		t.Fatal("expected error for unknown column")
	}
}

func TestApplyInstantNoPin(t *testing.T) {
	cat := testCatalog()
	e := exec.New(cat, exec.Config{CacheBytes: 1 << 20, HeapBytes: 1 << 20})
	m := NewManager(LFU)
	m.Tracker.Record("a.x")
	if err := m.ApplyInstant(e, m.Desired(e.Cat, 1<<20), false); err != nil {
		t.Fatal(err)
	}
	if e.Cache.Pinned("a.x") {
		t.Fatal("pin=false must not pin")
	}
}

// Property (Algorithm 1): the desired set always fits the budget, and under
// LFU every placed column has an access count >= any skipped column that
// would also have fit at its turn.
func TestDesiredInvariants(t *testing.T) {
	cat := testCatalog()
	cols := []table.ColumnID{"a.x", "b.x", "c.x", "d.x"}
	f := func(seed int64, budgetRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager(LFU)
		for i := 0; i < 50; i++ {
			m.Tracker.Record(cols[rng.Intn(len(cols))])
		}
		budget := int64(budgetRaw) % 7000
		got := m.Desired(cat, budget)
		var used int64
		seen := make(map[table.ColumnID]bool)
		lastCount := int64(1 << 62)
		for _, id := range got {
			b, err := cat.ColumnBytes(id)
			if err != nil {
				return false
			}
			used += b
			if seen[id] {
				return false // duplicates
			}
			seen[id] = true
			// Emitted in non-increasing count order.
			if m.Tracker.Count(id) > lastCount {
				return false
			}
			lastCount = m.Tracker.Count(id)
		}
		return used <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
