package core

import "hybridvc/internal/addr"

// permTable maps permKey to the permission recorded on cache fills. It is
// a linear-probe open-addressing table rather than a Go map because the
// shadow-permission lookup runs on every fill: the specialized probe is a
// single multiply plus one slot load, where the generic map pays for
// hashing, bucket metadata, and heavier probing. Each slot packs the key
// (bits 0..51: 36 page bits plus the 16-bit ASID), the slot state and the
// 2-bit permission into one word, so the whole table at 50% load is half
// the footprint of a map and a probe touches exactly one cache line. The
// table is fully deterministic, so simulation output cannot depend on map
// iteration or seeding.
type permTable struct {
	slots []uint64
	mask  uint64
	shift uint
	live  int // occupied slots
	used  int // occupied slots plus tombstones
	// sink keeps prefetch touches live. It is per table, not a package
	// variable, because parallel simulations touch their own tables.
	sink uint64
}

const (
	permSlotKeyMask = 1<<52 - 1
	permSlotState   = 52 // 2-bit slot state
	permSlotPerm    = 54 // 2-bit addr.Perm
)

const (
	slotEmpty uint64 = iota
	slotLive
	slotDead // tombstone: keeps probe chains intact across deletes
)

func permSlotPack(k permKey, p addr.Perm, state uint64) uint64 {
	return uint64(k) | state<<permSlotState | uint64(p)<<permSlotPerm
}

func newPermTable() *permTable {
	const initLog = 10
	return &permTable{
		slots: make([]uint64, 1<<initLog),
		mask:  1<<initLog - 1,
		shift: 64 - initLog,
	}
}

// idx is Fibonacci hashing: the multiply spreads the key's page (low) and
// ASID (high) bits into the top bits selected by the shift.
func (t *permTable) idx(k permKey) uint64 {
	return uint64(k) * 0x9e3779b97f4a7c15 >> t.shift
}

// touch reads k's home slot without interpreting it. The batched front
// ends call it a block of requests ahead of the fillPerm probes so the
// table's random-index loads — host-cache misses on large footprints —
// issue in parallel instead of serially inside the decode loop.
func (t *permTable) touch(k permKey) uint64 {
	return t.slots[t.idx(k)]
}

func (t *permTable) get(k permKey) (addr.Perm, bool) {
	for i := t.idx(k); ; i = (i + 1) & t.mask {
		s := t.slots[i]
		switch {
		case s>>permSlotState&3 == slotLive && s&permSlotKeyMask == uint64(k):
			return addr.Perm(s >> permSlotPerm & 3), true
		case s>>permSlotState&3 == slotEmpty:
			return 0, false
		}
	}
}

func (t *permTable) set(k permKey, p addr.Perm) {
	dead := -1
	for i := t.idx(k); ; i = (i + 1) & t.mask {
		s := t.slots[i]
		switch s >> permSlotState & 3 {
		case slotLive:
			if s&permSlotKeyMask == uint64(k) {
				t.slots[i] = permSlotPack(k, p, slotLive)
				return
			}
		case slotDead:
			if dead < 0 {
				dead = int(i)
			}
		case slotEmpty:
			if dead >= 0 {
				i = uint64(dead)
			} else {
				t.used++
			}
			t.slots[i] = permSlotPack(k, p, slotLive)
			t.live++
			if 4*t.used > 3*len(t.slots) {
				t.grow()
			}
			return
		}
	}
}

func (t *permTable) del(k permKey) {
	for i := t.idx(k); ; i = (i + 1) & t.mask {
		s := t.slots[i]
		switch {
		case s>>permSlotState&3 == slotLive && s&permSlotKeyMask == uint64(k):
			t.slots[i] = s&^(3<<permSlotState) | slotDead<<permSlotState
			t.live--
			return
		case s>>permSlotState&3 == slotEmpty:
			return
		}
	}
}

// flushASID removes every entry of the given address space.
func (t *permTable) flushASID(asid addr.ASID) {
	for i, s := range t.slots {
		if s>>permSlotState&3 == slotLive && permKey(s&permSlotKeyMask).asid() == asid {
			t.slots[i] = s&^(3<<permSlotState) | slotDead<<permSlotState
			t.live--
		}
	}
}

// grow rehashes into a table at most half full of live entries, which
// both expands a full table and reclaims tombstone slots.
func (t *permTable) grow() {
	logSize := uint(10)
	for 2*t.live > 1<<logSize {
		logSize++
	}
	old := t.slots
	t.slots = make([]uint64, 1<<logSize)
	t.mask = 1<<logSize - 1
	t.shift = 64 - logSize
	t.live, t.used = 0, 0
	for _, s := range old {
		if s>>permSlotState&3 == slotLive {
			t.set(permKey(s&permSlotKeyMask), addr.Perm(s>>permSlotPerm&3))
		}
	}
}
