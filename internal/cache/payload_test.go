package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"hybridvc/internal/addr"
)

// payloadHierarchy is a 2-core hierarchy small enough that a few dozen
// names keep every level evicting: 2-set L1s, 4-set L2s and a 4-set,
// 4-way LLC.
func payloadHierarchy() *Hierarchy {
	return NewHierarchy(HierarchyConfig{
		NumCores: 2,
		L1I:      Config{Name: "L1I", SizeBytes: 256, Ways: 2, HitLatency: 2},
		L1D:      Config{Name: "L1D", SizeBytes: 256, Ways: 2, HitLatency: 4},
		L2:       Config{Name: "L2", SizeBytes: 512, Ways: 2, HitLatency: 6},
		LLC:      Config{Name: "LLC", SizeBytes: 1 << 10, Ways: 4, HitLatency: 27},
	})
}

// payloadPools returns the names the model test draws from: the first
// four lines of two pages, as metadata blocks of both kinds in two
// address spaces, and as data lines in those spaces and in physical
// space. The four lines fall in the LLC's four sets, and each page holds
// names of several kinds and spaces, so a page, name or ASID flush
// removes some blocks and spares their neighbours.
func payloadPools() (meta, data []addr.Name) {
	for _, page := range []uint64{0x10000, 0x11000} {
		for line := uint64(0); line < 4; line++ {
			a := page + line*addr.LineSize
			for _, asid := range []addr.ASID{asid1, asid2} {
				for _, k := range []addr.PayloadKind{addr.PayloadTranslation, addr.PayloadSynRecord} {
					meta = append(meta, addr.PayloadName(k, asid, addr.VA(a)))
				}
				data = append(data, vn(asid, a))
			}
			data = append(data, pn(a))
		}
	}
	return meta, data
}

const (
	payloadOpFill = iota
	payloadOpRefill
	payloadOpProbe
	payloadOpAccess
	payloadOpFlushName
	payloadOpFlushPage
	payloadOpFlushASID
)

// payloadOpMix weights the operations so that blocks stay resident long
// enough to be probed, refilled and displaced by data.
var payloadOpMix = [...]int{
	payloadOpFill, payloadOpFill, payloadOpFill, payloadOpRefill,
	payloadOpProbe, payloadOpProbe, payloadOpProbe, payloadOpProbe,
	payloadOpAccess, payloadOpAccess, payloadOpAccess, payloadOpAccess, payloadOpAccess,
	payloadOpFlushName, payloadOpFlushPage, payloadOpFlushASID,
}

// payloadModel runs a hierarchy beside a map of the metadata blocks
// resident in its LLC, with their words, and the number of them that
// have left it.
type payloadModel struct {
	h               *Hierarchy
	meta, data, all []addr.Name
	words           map[addr.Name]uint64
	evictions       uint64
}

func newPayloadModel() *payloadModel {
	meta, data := payloadPools()
	return &payloadModel{
		h: payloadHierarchy(), meta: meta, data: data,
		all: append(append([]addr.Name(nil), meta...), data...), words: map[addr.Name]uint64{},
	}
}

// drop removes the model blocks match selects, counting each as evicted.
func (m *payloadModel) drop(match func(addr.Name) bool) {
	for n := range m.words {
		if match(n) {
			delete(m.words, n)
			m.evictions++
		}
	}
}

// step applies operation i of a run, decoded from two bytes (the
// operation, its core and its access kind from b, the name from x), to
// the hierarchy and the model, and reports the first disagreement.
func (m *payloadModel) step(i int, b, x byte) error {
	h := m.h
	op := payloadOpMix[int(b)%len(payloadOpMix)]
	core := int(b) / len(payloadOpMix) % 2
	switch op {
	case payloadOpFill, payloadOpRefill:
		n := m.meta[int(x)%len(m.meta)]
		if op == payloadOpRefill {
			// Refill a resident block, the first of the pool from x on.
			for j := range m.meta {
				c := m.meta[(int(x)+j)%len(m.meta)]
				if _, ok := m.words[c]; ok {
					n = c
					break
				}
			}
		}
		w := uint64(i+1)<<8 | uint64(x)
		h.FillPayload(core, n, w)
		m.words[n] = w
	case payloadOpProbe:
		n := m.meta[int(x)%len(m.meta)]
		got, _, ok := h.ProbePayload(core, n)
		want, wok := m.words[n]
		if ok != wok || got != want {
			return fmt.Errorf("ProbePayload(%d, %v) = %#x, %v; want %#x, %v", core, n, got, ok, want, wok)
		}
	case payloadOpAccess:
		kinds := [...]AccessKind{Read, Write, Fetch}
		h.Access(core, kinds[int(b)/len(payloadOpMix)/2%len(kinds)], m.data[int(x)%len(m.data)], addr.PermRW)
	case payloadOpFlushName:
		n := m.all[int(x)%len(m.all)]
		h.FlushName(n)
		m.drop(func(c addr.Name) bool { return c == n })
	case payloadOpFlushPage:
		page := m.all[int(x)%len(m.all)]
		h.FlushPage(page)
		m.drop(func(c addr.Name) bool { return c.SamePage(page) })
	case payloadOpFlushASID:
		asid := [...]addr.ASID{asid1, asid2}[int(x)%2]
		h.FlushASID(asid)
		m.drop(func(c addr.Name) bool { return !c.Synonym && c.ASID == asid })
	}
	// A fill of the LLC can displace a metadata block; no other step may.
	if op == payloadOpFill || op == payloadOpRefill || op == payloadOpAccess {
		m.drop(func(c addr.Name) bool { return h.llc.Probe(c) == nil })
	}
	got := map[addr.Name]uint64{}
	var err error
	h.ForEachPayload(func(n addr.Name, w uint64) {
		if _, dup := got[n]; dup && err == nil {
			err = fmt.Errorf("ForEachPayload visits %v twice", n)
		}
		got[n] = w
	})
	if err != nil {
		return err
	}
	if len(got) != len(m.words) {
		return fmt.Errorf("ForEachPayload visits %d blocks, want %d", len(got), len(m.words))
	}
	for n, w := range m.words {
		if gw, ok := got[n]; !ok || gw != w {
			return fmt.Errorf("ForEachPayload gives %v word %#x (visited %v), want %#x", n, gw, ok, w)
		}
	}
	if got, want := h.PayloadEvictions.Value(), m.evictions; got != want {
		return fmt.Errorf("PayloadEvictions = %d, want %d", got, want)
	}
	return h.CheckInvariants()
}

// payloadByte encodes op on core as the operation byte step decodes.
func payloadByte(op, core int) byte {
	for i, o := range payloadOpMix {
		if o == op {
			return byte(core*len(payloadOpMix) + i)
		}
	}
	panic(fmt.Sprintf("payload op %d is not in the mix", op))
}

// payloadSeed draws a seed input of n operations: two bytes each.
func payloadSeed(seed int64, n int) []byte {
	in := make([]byte, 2*n)
	rand.New(rand.NewSource(seed)).Read(in)
	return in
}

// FuzzPayloadsMatchModel drives a 2-core hierarchy with payload fills
// (refills of resident blocks among them), payload probes from either
// core, data reads, writes and fetches, and name, page and ASID flushes,
// each decoded from a pair of input bytes, beside a map of the metadata
// blocks resident in the LLC. Every probe's hit and word, the
// (name, word) set ForEachPayload visits, PayloadEvictions and
// CheckInvariants must agree with the model after every step.
func FuzzPayloadsMatchModel(f *testing.F) {
	// Core 0 fills two blocks and refills the first, core 1 probes both
	// (LLC hits), then again (L2 hits), and core 0 probes the first after
	// an ASID flush drops both.
	fill, refill := payloadByte(payloadOpFill, 0), payloadByte(payloadOpRefill, 0)
	probe0, probe1 := payloadByte(payloadOpProbe, 0), payloadByte(payloadOpProbe, 1)
	flushASID := payloadByte(payloadOpFlushASID, 0)
	f.Add([]byte{fill, 0, fill, 1, refill, 0, probe1, 0, probe1, 1, probe1, 0, probe1, 1, flushASID, 0, probe0, 0})
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(payloadSeed(seed, 250))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m := newPayloadModel()
		for i := 0; i+1 < len(in); i += 2 {
			if err := m.step(i/2, in[i], in[i+1]); err != nil {
				t.Fatalf("op %d (%d, %d): %v", i/2, in[i], in[i+1], err)
			}
		}
	})
}
