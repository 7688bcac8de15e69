package virt

import (
	"testing"

	"hybridvc/internal/addr"
	"hybridvc/internal/osmodel"
)

func newVM(t *testing.T, chunks int) (*Hypervisor, *VM) {
	t.Helper()
	hv := NewHypervisor(1 << 30)
	vm, err := hv.NewVM(256<<20, chunks)
	if err != nil {
		t.Fatal(err)
	}
	return hv, vm
}

func TestNewVMBacksGuestSpace(t *testing.T) {
	hv, vm := newVM(t, 4)
	if vm.VMID == 0 {
		t.Fatal("VMID 0 assigned to a guest")
	}
	if len(vm.HostSegs) != 4 {
		t.Fatalf("host segments = %d", len(vm.HostSegs))
	}
	// Every gPA page must translate through both host PT and host segments
	// consistently.
	for _, gpa := range []uint64{0, addr.PageSize, 128 << 20, 256<<20 - addr.PageSize} {
		maPT, ok1 := vm.HostPT.Translate(addr.VA(gpa))
		maSeg, ok2 := vm.TranslateGPA(addr.GPA(gpa))
		if !ok1 || !ok2 || maPT != maSeg {
			t.Fatalf("gPA %#x: PT %#x(%v) seg %#x(%v)", gpa, uint64(maPT), ok1, uint64(maSeg), ok2)
		}
	}
	if _, ok := vm.TranslateGPA(addr.GPA(257 << 20)); ok {
		t.Error("out-of-range gPA translated")
	}
	if hv.VM(vm.VMID) != vm {
		t.Error("VM registry broken")
	}
}

func TestGuestASIDsCarryVMID(t *testing.T) {
	_, vm := newVM(t, 1)
	p, err := vm.Kernel.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	if p.ASID.VMID() != vm.VMID {
		t.Errorf("guest ASID VMID = %d, want %d", p.ASID.VMID(), vm.VMID)
	}
	// Two VMs' processes must never share an ASID.
	hv2 := NewHypervisor(1 << 30)
	vmA, _ := hv2.NewVM(64<<20, 1)
	vmB, _ := hv2.NewVM(64<<20, 1)
	pa, _ := vmA.Kernel.NewProcess()
	pb, _ := vmB.Kernel.NewProcess()
	if pa.ASID == pb.ASID {
		t.Error("cross-VM ASID collision")
	}
}

func TestWalk2DFullDepthIs24Accesses(t *testing.T) {
	_, vm := newVM(t, 1)
	p, _ := vm.Kernel.NewProcess()
	gva, err := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker2D(vm, false)
	res := w.Walk(p, gva+0x123)
	if !res.OK {
		t.Fatalf("walk failed: %+v", res)
	}
	// 4 guest levels x (4 host reads + 1 guest PTE read) + 4 host reads
	// for the data gPA = 24.
	if len(res.Path) != 24 {
		t.Errorf("2D walk touched %d addresses, want 24", len(res.Path))
	}
	// The final MA must agree with the functional composition.
	gpa, _ := p.PT.Translate(gva + 0x123)
	wantMA, _ := vm.TranslateGPA(addr.GPA(gpa))
	if res.MA != wantMA {
		t.Errorf("MA = %#x, want %#x", uint64(res.MA), uint64(wantMA))
	}
	if res.GPA != addr.GPA(gpa) {
		t.Errorf("GPA = %#x, want %#x", uint64(res.GPA), uint64(gpa))
	}
	if w.Accesses.Value() != 24 {
		t.Errorf("accesses = %d", w.Accesses.Value())
	}
}

func TestWalk2DNestedTLBReducesAccesses(t *testing.T) {
	_, vm := newVM(t, 1)
	p, _ := vm.Kernel.NewProcess()
	gva, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	w := NewWalker2D(vm, true)
	cold := w.Walk(p, gva)
	if !cold.OK || len(cold.Path) != 24 {
		t.Fatalf("cold walk: %d accesses ok=%v", len(cold.Path), cold.OK)
	}
	// A second walk of a nearby page reuses host translations for the
	// guest table pages: each of the 5 host walks collapses to a TLB hit,
	// leaving 4 guest PTE reads + 0 host reads = 4...
	warm := w.Walk(p, gva+addr.PageSize)
	if len(warm.Path) >= len(cold.Path) {
		t.Errorf("nested TLB did not reduce accesses: %d -> %d", len(cold.Path), len(warm.Path))
	}
	if warm.NestedTLBHits == 0 {
		t.Error("no nested TLB hits recorded")
	}
	// 4 guest PTE reads (host walks cached) + 4 host reads for the new
	// data page's gPA = 8.
	if len(warm.Path) != 8 {
		t.Errorf("warm walk = %d accesses, want 8", len(warm.Path))
	}
}

func TestWalk2DUnmappedGuestPage(t *testing.T) {
	_, vm := newVM(t, 1)
	p, _ := vm.Kernel.NewProcess()
	w := NewWalker2D(vm, false)
	res := w.Walk(p, 0x7000_0000)
	if res.OK {
		t.Fatal("walk of unmapped gva succeeded")
	}
	// It still pays host translation for the guest root table read.
	if len(res.Path) == 0 {
		t.Error("no accesses recorded for failed walk")
	}
}

func TestShareGuestFramesMarksHostFilters(t *testing.T) {
	hv := NewHypervisor(1 << 30)
	vmA, _ := hv.NewVM(64<<20, 1)
	vmB, _ := hv.NewVM(64<<20, 1)
	pA, _ := vmA.Kernel.NewProcess()
	pB, _ := vmB.Kernel.NewProcess()
	gvaA, _ := pA.Mmap(addr.PageSize, addr.PermRW, osmodel.MmapOpts{})
	gvaB, _ := pB.Mmap(addr.PageSize, addr.PermRW, osmodel.MmapOpts{})
	vmA.TrackProcessRegion(pA, gvaA, addr.PageSize)
	vmB.TrackProcessRegion(pB, gvaB, addr.PageSize)

	pteA, _ := pA.PT.Lookup(gvaA)
	pteB, _ := pB.PT.Lookup(gvaB)
	if err := hv.ShareGuestFrames(vmA, pteA.Frame, vmB, pteB.Frame); err != nil {
		t.Fatal(err)
	}
	// Host filters must flag the guest virtual addresses even though the
	// guest OSes never marked them.
	if !vmA.HostFilter.IsCandidate(gvaA) {
		t.Error("vmA host filter missing gVA")
	}
	if !vmB.HostFilter.IsCandidate(gvaB) {
		t.Error("vmB host filter missing gVA")
	}
	// Guest filters stay clean.
	if pA.Filter.IsCandidate(gvaA) || pB.Filter.IsCandidate(gvaB) {
		t.Error("guest filters polluted by hypervisor sharing")
	}
	// Both now reach the same machine frame, and the 2D walk reports the
	// sharing.
	maA, _ := vmA.HostPT.Translate(addr.PageToVA(pteA.Frame))
	maB, _ := vmB.HostPT.Translate(addr.PageToVA(pteB.Frame))
	if maA != maB {
		t.Error("frames not shared")
	}
	w := NewWalker2D(vmB, false)
	res := w.Walk(pB, gvaB)
	if !res.OK || !res.HostShared {
		t.Errorf("walk did not report host sharing: %+v", res)
	}
}

func TestContentShareROKeepsFiltersClean(t *testing.T) {
	hv := NewHypervisor(1 << 30)
	vmA, _ := hv.NewVM(64<<20, 1)
	vmB, _ := hv.NewVM(64<<20, 1)
	pA, _ := vmA.Kernel.NewProcess()
	pB, _ := vmB.Kernel.NewProcess()
	gvaA, _ := pA.Mmap(addr.PageSize, addr.PermRW, osmodel.MmapOpts{})
	gvaB, _ := pB.Mmap(addr.PageSize, addr.PermRW, osmodel.MmapOpts{})
	pteA, _ := pA.PT.Lookup(gvaA)
	pteB, _ := pB.PT.Lookup(gvaB)

	if err := hv.ContentShareRO(vmA, pteA.Frame, vmB, pteB.Frame); err != nil {
		t.Fatal(err)
	}
	if vmA.HostFilter.IsCandidate(gvaA) || vmB.HostFilter.IsCandidate(gvaB) {
		t.Error("r/o content sharing marked host filters")
	}
	// Both host mappings are now read-only at the same MA.
	w := NewWalker2D(vmB, false)
	res := w.Walk(pB, gvaB)
	if !res.OK {
		t.Fatal("walk failed")
	}
	maA, _ := vmA.HostPT.Translate(addr.PageToVA(pteA.Frame))
	if res.MA.PageAligned() != maA.PageAligned() {
		t.Error("content share did not alias machine frames")
	}
	if hv.ContentShares.Value() != 1 {
		t.Error("content share not counted")
	}

	// Breaking the share gives vmB a private frame again.
	if err := hv.BreakContentShare(vmB, pteB.Frame); err != nil {
		t.Fatal(err)
	}
	maB, _ := vmB.HostPT.Translate(addr.PageToVA(pteB.Frame))
	if maB.PageAligned() == maA.PageAligned() {
		t.Error("break did not copy")
	}
	pte, _ := vmB.HostPT.Lookup(addr.PageToVA(pteB.Frame))
	if pte.Perm != addr.PermRW {
		t.Error("broken share not r/w")
	}
}

func TestNewVMErrors(t *testing.T) {
	hv := NewHypervisor(16 << 20)
	if _, err := hv.NewVM(0, 1); err == nil {
		t.Error("zero-size VM created")
	}
	if _, err := hv.NewVM(addr.PageSize+1, 1); err == nil {
		t.Error("unaligned VM created")
	}
	if _, err := hv.NewVM(1<<30, 1); err == nil {
		t.Error("oversized VM created")
	}
}

func TestDestroyVMReclaimsMachineMemory(t *testing.T) {
	hv := NewHypervisor(1 << 30)
	free0 := hv.Machine.FreeFrames()
	vm, err := hv.NewVM(128<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := vm.Kernel.NewProcess()
	gva, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	_ = gva
	hv.DestroyVM(vm)
	if hv.Machine.FreeFrames() != free0 {
		t.Errorf("machine frames leaked: %d -> %d", free0, hv.Machine.FreeFrames())
	}
	if hv.HostSegMgr.Table.Used() != 0 {
		t.Errorf("host segments leaked: %d", hv.HostSegMgr.Table.Used())
	}
	if hv.VM(vm.VMID) != nil {
		t.Error("VM registry retains destroyed VM")
	}
}

func TestDestroyVMReclaimsCoWFrames(t *testing.T) {
	hv := NewHypervisor(1 << 30)
	vmA, _ := hv.NewVM(64<<20, 1)
	free0 := hv.Machine.FreeFrames() // before the VM under test exists
	vmB, _ := hv.NewVM(64<<20, 1)
	pB, _ := vmB.Kernel.NewProcess()
	gvaB, _ := pB.Mmap(addr.PageSize, addr.PermRW, osmodel.MmapOpts{})
	pteB, _ := pB.PT.Lookup(gvaB)
	pA, _ := vmA.Kernel.NewProcess()
	gvaA, _ := pA.Mmap(addr.PageSize, addr.PermRW, osmodel.MmapOpts{})
	pteA, _ := pA.PT.Lookup(gvaA)
	if err := hv.ContentShareRO(vmA, pteA.Frame, vmB, pteB.Frame); err != nil {
		t.Fatal(err)
	}
	if err := hv.BreakContentShare(vmB, pteB.Frame); err != nil {
		t.Fatal(err)
	}
	hv.DestroyVM(vmB)
	if hv.Machine.FreeFrames() != free0 {
		t.Errorf("CoW frame leaked: %d -> %d", free0, hv.Machine.FreeFrames())
	}
	// vmA remains fully functional.
	if _, ok := vmA.TranslateGPA(0); !ok {
		t.Error("surviving VM broken")
	}
}

func TestWalk2DGuestHugePage(t *testing.T) {
	_, vm := newVM(t, 1)
	p, _ := vm.Kernel.NewProcess()
	gva, err := p.Mmap(4<<20, addr.PermRW, osmodel.MmapOpts{HugePages: true})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker2D(vm, false)
	off := addr.VA(1<<20 + 0x360) // beyond the 4 KiB offset bits
	res := w.Walk(p, gva+off)
	if !res.OK {
		t.Fatalf("walk failed: %+v", res)
	}
	// The composed GPA/MA must agree with the functional translation.
	gpa, _ := p.PT.Translate(gva + off)
	if res.GPA != addr.GPA(gpa) {
		t.Errorf("GPA = %#x, want %#x (huge offset lost)", uint64(res.GPA), uint64(gpa))
	}
	want, _ := vm.TranslateGPA(addr.GPA(gpa))
	if res.MA != want {
		t.Errorf("MA = %#x, want %#x", uint64(res.MA), uint64(want))
	}
	// The guest walk is one level shorter: 3 guest levels x 5 + 4 = 19.
	if len(res.Path) != 19 {
		t.Errorf("huge guest walk = %d accesses, want 19", len(res.Path))
	}
}
