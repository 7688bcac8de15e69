package cache

import "hybridvc/internal/addr"

// ForEachPayload visits every LLC-resident metadata block (Kind !=
// PayloadData) with its payload word, in LLC way order.
func (h *Hierarchy) ForEachPayload(fn func(n addr.Name, payload uint64)) {
	for i, p := range h.payloads {
		if h.llc.keys[i] != 0 {
			if n := h.llc.nameAt(uint64(i)); n.Kind != addr.PayloadData {
				fn(n, p)
			}
		}
	}
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
	if i, ok := h.l2[core].accessWay(n); ok {
		// Inclusion keeps the line in the LLC way the L2 copy points at.
		li := (n.Line()&h.llc.setMask)*h.llc.ways + uint64(h.llcWay[core][i])
		return h.payloads[li], latency, true
	}
	latency += h.llc.Config().HitLatency
	if li, ok := h.llc.accessWay(n); ok {
		// The L2 has just missed n, so the fill need not look again.
		i, v, evicted := h.l2[core].fillAbsent(n, Shared, h.llc.meta[li].Perm)
		h.holdL2(core, i, li, v, evicted)
		return h.payloads[li], latency, true
	}
	return 0, latency, false
}

// FillPayload installs a metadata block into the LLC and the filling core's
// private L2 with the given payload word, which its LLC way keeps for as
// long as the block stays there. Metadata blocks are always clean and
// Shared (the authoritative copy lives in OS structures), so eviction
// never writes them back; the LLC victim, if any, is back-invalidated like
// any other fill.
func (h *Hierarchy) FillPayload(core int, n addr.Name, payload uint64) {
	if h.payloads == nil {
		h.payloads = make([]uint64, len(h.llc.keys))
	}
	li, present, v, evicted := h.llc.fill(n, Shared, addr.PermRO)
	h.payloads[li] = payload
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
// private caches of the cores that hold it). This is the
// shootdown-driven invalidation path: when the OS changes a mapping, the
// owning organization flushes the affected translation or record block by
// name.
func (h *Hierarchy) FlushName(n addr.Name) (flushed int) {
	flushed, dirty := h.flushLine(n)
	if dirty > 0 {
		h.MemWritebacks.Inc()
	}
	return flushed
}
