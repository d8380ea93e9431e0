package par

import (
	"sync"

	"robustdb/internal/column"
)

// Buffer arena: sync.Pool-backed recycling for the per-morsel position
// lists the kernels burn through.
//
// Lifetime rules (DESIGN.md §12):
//
//   - A Get'd buffer is owned by exactly one morsel/worker until it is
//     either Put back or its ownership is transferred into a result (in
//     which case it is simply never Put — the arena tolerates loss).
//   - Buffers are returned with length zero and capacity at least the
//     requested hint; contents are unspecified beyond the length.
//   - Put is safe on slices that did not come from Get, and never retains
//     zero-capacity slices.
//   - The arena is global and lock-free (sync.Pool); it never appears in
//     heap Reservation accounting because reservations model the simulated
//     device, not host scratch.

var posArena sync.Pool // of *column.PosList

// GetPos returns a zero-length position list with capacity >= capHint.
func GetPos(capHint int) column.PosList {
	if v := posArena.Get(); v != nil {
		s := *(v.(*column.PosList))
		if cap(s) >= capHint {
			return s[:0]
		}
	}
	if capHint < DefaultMorselRows {
		capHint = DefaultMorselRows
	}
	return make(column.PosList, 0, capHint)
}

// PutPos recycles a position list obtained from GetPos.
func PutPos(s column.PosList) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	posArena.Put(&s)
}
