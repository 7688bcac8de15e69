package cache

import (
	"fmt"

	"hybridvc/internal/addr"
)

// PayloadListener receives eviction notifications for metadata blocks.
// When a translation- or record-bearing block leaves the LLC (capacity
// eviction, ASID flush, or an explicit FlushName shootdown), the owning
// organization is told so it can reconcile its own state — the cache-side
// mirror of the OS shootdown contract.
type PayloadListener interface {
	PayloadEvicted(n addr.Name, payload uint64)
}

// payloadTable is the hierarchy-owned open-addressed map from a metadata
// block's packed name key to its one-word payload: Fibonacci hashing,
// linear probing, tombstoned deletes, grow at 3/4 occupancy. Keys are full
// 64-bit Name.Key() values, so live slots are marked with keyValidBit —
// bit 1, which Name.Key() never sets — rather than with state packed into
// spare key bits. Steady-state lookups allocate nothing.
type payloadTable struct {
	keys  []uint64 // Name.Key()|keyValidBit, 0 (empty), or payloadTomb
	vals  []uint64
	used  int // live + tombstones
	live  int
	shift uint
	// spareKeys/spareVals are the arrays a same-size grow retired. The
	// next same-size grow (a tombstone purge) rehashes into them, so a
	// table churning at a steady size stops allocating.
	spareKeys, spareVals []uint64
}

const payloadInitLog = 8

// payloadTomb marks a deleted slot. Metadata names always carry a nonzero
// payload kind in key bits 2..3, so no stored key ever equals the bare
// valid bit.
const payloadTomb = uint64(keyValidBit)

func newPayloadTable() *payloadTable {
	return &payloadTable{
		keys:  make([]uint64, 1<<payloadInitLog),
		vals:  make([]uint64, 1<<payloadInitLog),
		shift: 64 - payloadInitLog,
	}
}

func (t *payloadTable) idx(k uint64) uint64 {
	return k * 0x9e3779b97f4a7c15 >> t.shift
}

func (t *payloadTable) get(k uint64) (uint64, bool) {
	mask := uint64(len(t.keys) - 1)
	sk := k | keyValidBit
	for i := t.idx(k); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case sk:
			return t.vals[i], true
		case 0:
			return 0, false
		}
	}
}

func (t *payloadTable) set(k, v uint64) {
	mask := uint64(len(t.keys) - 1)
	sk := k | keyValidBit
	free := -1
	for i := t.idx(k); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case sk:
			t.vals[i] = v
			return
		case payloadTomb:
			if free < 0 {
				free = int(i)
			}
		case 0:
			if free < 0 {
				free = int(i)
				t.used++
			}
			t.keys[free] = sk
			t.vals[free] = v
			t.live++
			if 4*t.used > 3*len(t.keys) {
				t.grow()
			}
			return
		}
	}
}

func (t *payloadTable) del(k uint64) (uint64, bool) {
	mask := uint64(len(t.keys) - 1)
	sk := k | keyValidBit
	for i := t.idx(k); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case sk:
			v := t.vals[i]
			t.keys[i] = payloadTomb
			t.vals[i] = 0
			t.live--
			return v, true
		case 0:
			return 0, false
		}
	}
}

// grow rehashes into a table at most half full of live entries, reclaiming
// tombstones in the process.
func (t *payloadTable) grow() {
	size := len(t.keys)
	for t.live*2 >= size {
		size *= 2
	}
	keys, vals := t.keys, t.vals
	if size == len(keys) && len(t.spareKeys) == size {
		clear(t.spareKeys)
		clear(t.spareVals)
		t.keys, t.vals = t.spareKeys, t.spareVals
	} else {
		t.keys = make([]uint64, size)
		t.vals = make([]uint64, size)
	}
	t.spareKeys, t.spareVals = nil, nil
	if size == len(keys) {
		t.spareKeys, t.spareVals = keys, vals
	}
	t.shift = 64 - log2(uint64(size))
	t.used, t.live = 0, 0
	for i, sk := range keys {
		if sk != 0 && sk != payloadTomb {
			t.set(sk&^keyValidBit, vals[i])
		}
	}
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// forEach visits every live entry in slot order (deterministic for a given
// insertion history).
func (t *payloadTable) forEach(fn func(k, v uint64)) {
	for i, sk := range t.keys {
		if sk != 0 && sk != payloadTomb {
			fn(sk&^keyValidBit, t.vals[i])
		}
	}
}

// SetPayloadListener installs the eviction-notification sink for metadata
// blocks. A single owner per hierarchy suffices: each organization that
// parks payloads in the caches owns all of them.
func (h *Hierarchy) SetPayloadListener(l PayloadListener) { h.payloadListener = l }

// Payload returns the payload word recorded for a metadata block name.
func (h *Hierarchy) Payload(n addr.Name) (uint64, bool) { return h.payloads.get(n.Key()) }

// PayloadCount returns the number of live metadata payloads.
func (h *Hierarchy) PayloadCount() int { return h.payloads.live }

// ForEachPayload visits every live (name, payload) pair in table slot
// order, which is deterministic for a given run.
func (h *Hierarchy) ForEachPayload(fn func(n addr.Name, payload uint64)) {
	h.payloads.forEach(func(k, v uint64) { fn(addr.NameFromKey(k), v) })
}

// ProbePayload looks a metadata block up in core's private L2 and then the
// shared LLC — never the L1s, which stay data/instruction only — recording
// normal hit/miss statistics and LRU updates. An LLC hit promotes the block
// into the probing core's L2 (inclusion preserved via the usual victim
// path). It returns the payload word, the lookup latency, and whether the
// block was resident. On a miss nothing is filled: the caller walks the
// authoritative structure and calls FillPayload.
func (h *Hierarchy) ProbePayload(core int, n addr.Name) (payload, latency uint64, ok bool) {
	latency = h.l2[core].Config().HitLatency
	if h.l2[core].Access(n) != nil {
		p, _ := h.payloads.get(n.Key())
		return p, latency, true
	}
	latency += h.llc.Config().HitLatency
	if li, ok := h.llc.accessWay(n); ok {
		p, _ := h.payloads.get(n.Key())
		// The L2 has just missed n, so the fill need not look again.
		i, v, evicted := h.l2[core].fillAbsent(n, Shared, h.llc.meta[li].Perm)
		h.holdL2(core, i, li, v, evicted)
		return p, latency, true
	}
	return 0, latency, false
}

// FillPayload installs a metadata block into the LLC and the filling core's
// private L2 with the given payload word. Metadata blocks are always clean
// and Shared (the authoritative copy lives in OS structures), so eviction
// never writes them back; the LLC victim, if any, is back-invalidated like
// any other fill and its own payload — when it was a metadata block — is
// dropped with notification.
func (h *Hierarchy) FillPayload(core int, n addr.Name, payload uint64) {
	h.payloads.set(n.Key(), payload)
	li, present, v, evicted := h.llc.fill(n, Shared, addr.PermRO)
	if !present {
		if evicted {
			h.backInvalidate(v.Name, h.holders[li], nil)
			if v.Dirty {
				h.MemWritebacks.Inc()
			}
		}
		h.holders[li] = 0
	}
	if i, present, v, evicted := h.l2[core].fill(n, Shared, addr.PermRO); !present {
		h.holdL2(core, i, li, v, evicted)
	}
}

// FlushName invalidates the exact block everywhere (the LLC and the
// private caches of the cores that hold it) and, for metadata blocks,
// drops the payload with notification. This is the shootdown-driven
// invalidation path: when the OS changes a mapping, the owning
// organization flushes the affected translation or record block by name.
func (h *Hierarchy) FlushName(n addr.Name) (flushed int) {
	flushed, dirty := h.flushLine(n)
	if dirty > 0 {
		h.MemWritebacks.Inc()
	}
	if n.Kind != addr.PayloadData {
		h.evictPayload(n)
	}
	return flushed
}

// evictPayload removes a metadata block's payload entry and notifies the
// owner. Called wherever a metadata block leaves the LLC: capacity
// back-invalidation, explicit FlushName, or an ASID flush.
func (h *Hierarchy) evictPayload(n addr.Name) {
	if v, ok := h.payloads.del(n.Key()); ok && h.payloadListener != nil {
		h.payloadListener.PayloadEvicted(n, v)
	}
}

// checkPayloadResidency verifies the payload⇔LLC-residency invariant in
// both directions: every payload entry names an LLC-resident block, and
// every LLC-resident metadata block has a payload entry.
func (h *Hierarchy) checkPayloadResidency() error {
	var err error
	h.payloads.forEach(func(k, _ uint64) {
		if err == nil && h.llc.Probe(addr.NameFromKey(k)) == nil {
			err = fmt.Errorf("cache: payload entry %v has no LLC-resident block", addr.NameFromKey(k))
		}
	})
	if err != nil {
		return err
	}
	h.llc.ForEachLine(func(n addr.Name, _ *Line) {
		if err == nil && n.Kind != addr.PayloadData {
			if _, ok := h.payloads.get(n.Key()); !ok {
				err = fmt.Errorf("cache: metadata block %v resident without payload entry", n)
			}
		}
	})
	return err
}
