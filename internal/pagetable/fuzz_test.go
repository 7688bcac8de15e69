package pagetable

import (
	"testing"

	"hybridvc/internal/addr"
)

func FuzzPTEEncodeDecode(f *testing.F) {
	f.Add(uint64(0), uint8(0), false, false)
	f.Add(uint64(0x12345), uint8(2), true, false)
	f.Add(uint64(1)<<39, uint8(3), false, true)
	f.Fuzz(func(t *testing.T, frame uint64, perm uint8, shared, huge bool) {
		p := PTE{
			Present: true,
			Frame:   frame & (1<<40 - 1),
			Perm:    addr.Perm(perm & 3),
			Shared:  shared,
			Huge:    huge,
		}
		got := DecodePTE(p.Encode())
		if got != p {
			t.Fatalf("round trip: %+v -> %+v", p, got)
		}
	})
}

func FuzzMapLookupAgree(f *testing.F) {
	f.Add(uint64(0x1000), uint64(7))
	f.Add(uint64(0x7fff_ffff_f000), uint64(1<<20))
	f.Fuzz(func(t *testing.T, rawVA, frame uint64) {
		va := addr.VA(rawVA % (1 << addr.VABits)).PageAligned()
		frame &= 1<<28 - 1
		tbl := newTables(t)
		if err := tbl.Map(va, addr.FrameToPA(frame), addr.PermRW, false); err != nil {
			t.Fatal(err)
		}
		pte, ok := tbl.Lookup(va)
		if !ok || pte.Frame != frame {
			t.Fatalf("lookup after map: %+v ok=%v want frame %d", pte, ok, frame)
		}
		// The timed walk agrees with the functional lookup.
		_, n, leaf, ok := tbl.WalkPath(va)
		if !ok || leaf.Frame != frame || n != Levels {
			t.Fatalf("walk disagrees: %+v ok=%v path=%d", leaf, ok, n)
		}
	})
}
