// Package virt models hardware-assisted virtualization for the hybrid
// virtual caching design (Section V): virtual machines whose guest kernels
// run over guest-physical (gPA) memory, hypervisor-maintained host page
// tables and host segments mapping gPA to machine addresses (MA), per-VM
// host synonym filters indexed by guest virtual address, and the
// two-dimensional page walker whose 24 memory accesses the baseline pays
// before the L1 while the hybrid design defers them past the LLC.
package virt

import (
	"fmt"

	"hybridvc/internal/addr"
	"hybridvc/internal/mem"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/pagetable"
	"hybridvc/internal/segment"
	"hybridvc/internal/stats"
	"hybridvc/internal/synfilter"
	"hybridvc/internal/tlb"
)

// Hypervisor owns machine memory and the virtual machines.
type Hypervisor struct {
	Machine *mem.Allocator
	// HostSegMgr holds host segments (gPA -> MA), using each VM's pseudo
	// address space identified by MakeASID(vmid, 0).
	HostSegMgr *segment.Manager

	vms      map[uint32]*VM
	nextVMID uint32

	// ContentShares counts hypervisor-induced r/o content sharings.
	ContentShares stats.Counter
}

// NewHypervisor boots a hypervisor over machineBytes of machine memory.
func NewHypervisor(machineBytes uint64) *Hypervisor {
	alloc := mem.NewAllocator(machineBytes)
	return &Hypervisor{
		Machine:    alloc,
		HostSegMgr: segment.NewManager(segment.NewNodeArena(alloc)),
		vms:        make(map[uint32]*VM),
		nextVMID:   1,
	}
}

// VM is one virtual machine: a guest kernel over a gPA space plus the
// hypervisor-side structures that map that space onto machine memory.
type VM struct {
	VMID uint32
	// Kernel is the guest OS, allocating in guest-physical space.
	Kernel *osmodel.Kernel
	// HostPT maps gPA (used as the walk key) to MA.
	HostPT *pagetable.Tables
	// HostFilter is the hypervisor's synonym filter for this VM, indexed
	// by guest virtual address (Section V-A).
	HostFilter *synfilter.Filter
	// HostSegs back the gPA space with contiguous machine ranges.
	HostSegs []*segment.Segment
	// reverse maps gPA pages to the guest virtual pages that map them,
	// per guest ASID — the inverse mapping Section V-A says the
	// hypervisor may maintain to set host filters by gVA.
	reverse map[uint64][]gvaRef

	hv *Hypervisor
}

type gvaRef struct {
	asid addr.ASID
	gva  addr.VA
}

// hostASID is the pseudo address space under which a VM's host segments
// are registered.
func hostASID(vmid uint32) addr.ASID { return addr.MakeASID(vmid, 0) }

// NewVM creates a virtual machine with guestBytes of guest-physical memory
// backed by hostChunks contiguous machine ranges (several chunks model a
// hypervisor that could not find one huge extent).
func (hv *Hypervisor) NewVM(guestBytes uint64, hostChunks int) (*VM, error) {
	if hostChunks <= 0 {
		hostChunks = 1
	}
	if guestBytes == 0 || guestBytes%addr.PageSize != 0 {
		return nil, fmt.Errorf("virt: guest size %d not a page multiple", guestBytes)
	}
	if hv.nextVMID > addr.MaxVMID {
		return nil, fmt.Errorf("virt: out of VM identifiers")
	}
	vmid := hv.nextVMID
	hv.nextVMID++

	vm := &VM{
		VMID:       vmid,
		Kernel:     osmodel.NewKernel(osmodel.Config{PhysBytes: guestBytes, VMID: vmid}),
		HostFilter: synfilter.New(),
		reverse:    make(map[uint64][]gvaRef),
		hv:         hv,
	}
	hostPT, err := pagetable.New(hv.Machine)
	if err != nil {
		return nil, err
	}
	vm.HostPT = hostPT

	// Back the gPA space chunk by chunk with machine extents, registering
	// a host segment and host page table entries for each.
	framesTotal := guestBytes / addr.PageSize
	per := framesTotal / uint64(hostChunks)
	var gpa uint64
	for i := 0; i < hostChunks; i++ {
		frames := per
		if i == hostChunks-1 {
			frames = framesTotal - gpa/addr.PageSize
		}
		ma, ok := hv.Machine.AllocContiguous(frames)
		if !ok {
			return nil, fmt.Errorf("virt: out of machine memory for VM %d", vmid)
		}
		seg, err := hv.HostSegMgr.Allocate(hostASID(vmid), addr.VA(gpa), frames*addr.PageSize, ma, addr.PermRW)
		if err != nil {
			return nil, err
		}
		vm.HostSegs = append(vm.HostSegs, seg)
		if err := vm.HostPT.MapRange(addr.VA(gpa), ma, frames, addr.PermRW, false); err != nil {
			return nil, err
		}
		gpa += frames * addr.PageSize
	}
	hv.vms[vmid] = vm
	return vm, nil
}

// VM returns the VM with the given id, or nil.
func (hv *Hypervisor) VM(vmid uint32) *VM { return hv.vms[vmid] }

// DestroyVM tears a virtual machine down: guest processes exit, the host
// segments and machine extents are released, and the host page tables are
// destroyed. Machine frames privately added by content-share breaks are
// reclaimed through the host mappings before the extents go.
func (hv *Hypervisor) DestroyVM(vm *VM) {
	// Exit any remaining guest processes (releases guest-physical state).
	for _, asid := range vm.Kernel.ASIDs() {
		if p := vm.Kernel.Process(asid); p != nil {
			vm.Kernel.Exit(p)
		}
	}
	// CoW breaks allocated single machine frames outside the extents;
	// find them by comparing host mappings against the segment ranges.
	for gpa := uint64(0); ; gpa += addr.PageSize {
		pte, ok := vm.HostPT.Lookup(addr.VA(gpa))
		if !ok {
			// The gPA space is mapped densely from 0; the first hole is
			// the end (shared mappings may extend it, handled below).
			break
		}
		ma := addr.FrameToPA(pte.Frame)
		inExtent := false
		for _, seg := range vm.HostSegs {
			if ma >= seg.PABase && uint64(ma-seg.PABase) < seg.Length {
				inExtent = true
				break
			}
		}
		if !inExtent && !pte.Shared && pte.Perm == addr.PermRW {
			hv.Machine.Free(ma, 1)
		}
	}
	for _, seg := range vm.HostSegs {
		hv.HostSegMgr.Free(seg)
		hv.Machine.Free(seg.PABase, seg.Pages())
	}
	vm.HostPT.Destroy()
	delete(hv.vms, vm.VMID)
}

// TranslateGPA maps a guest-physical address to its machine address using
// the host segments (functional view).
func (vm *VM) TranslateGPA(gpa addr.GPA) (addr.PA, bool) {
	seg, ok := vm.hv.HostSegMgr.LookupSoft(hostASID(vm.VMID), addr.VA(gpa))
	if !ok {
		return 0, false
	}
	return seg.Translate(addr.VA(gpa)), true
}

// NoteMapping records a guest mapping in the hypervisor's inverse map so
// hypervisor-induced sharing can find the gVAs for a gPA page.
func (vm *VM) NoteMapping(asid addr.ASID, gva addr.VA, gpaFrame uint64) {
	vm.reverse[gpaFrame] = append(vm.reverse[gpaFrame], gvaRef{asid: asid, gva: gva.PageAligned()})
}

// TrackProcessRegion scans a guest process's mapped region and records the
// inverse mappings (a convenience for workloads that map large regions).
func (vm *VM) TrackProcessRegion(p *osmodel.Process, start addr.VA, length uint64) {
	for off := uint64(0); off < length; off += addr.PageSize {
		gva := start + addr.VA(off)
		if pte, ok := p.PT.Lookup(gva); ok {
			vm.NoteMapping(p.ASID, gva, pte.Frame)
		}
	}
}

// HostMarkSynonym marks every recorded gVA alias of a gPA frame in the host
// filter — the hypervisor-induced synonym path of Section V-A.
func (vm *VM) HostMarkSynonym(gpaFrame uint64) {
	for _, ref := range vm.reverse[gpaFrame] {
		vm.HostFilter.MarkSynonym(ref.gva)
	}
}

// ShareGuestFrames makes two gPA frames (possibly in different VMs) share
// one machine frame r/w — a hypervisor-induced synonym. Both VMs' host
// filters are updated by guest virtual address.
func (hv *Hypervisor) ShareGuestFrames(vmA *VM, gpaA uint64, vmB *VM, gpaB uint64) error {
	maA, okA := vmA.HostPT.Translate(addr.PageToVA(gpaA))
	if !okA {
		return fmt.Errorf("virt: gPA %#x unmapped in VM %d", gpaA, vmA.VMID)
	}
	if err := vmB.HostPT.Map(addr.PageToVA(gpaB), maA, addr.PermRW, true); err != nil {
		return err
	}
	vmA.HostPT.SetShared(addr.PageToVA(gpaA), true)
	vmA.HostMarkSynonym(gpaA)
	vmB.HostMarkSynonym(gpaB)
	return nil
}

// ContentShareRO deduplicates two same-content gPA frames onto one machine
// frame, read-only. Following Section III-D, r/o shared pages are NOT
// marked in the host synonym filter; guests keep using ASID+gVA and a
// write raises a permission fault that the hypervisor resolves by copying.
func (hv *Hypervisor) ContentShareRO(vmA *VM, gpaA uint64, vmB *VM, gpaB uint64) error {
	maA, okA := vmA.HostPT.Translate(addr.PageToVA(gpaA))
	if !okA {
		return fmt.Errorf("virt: gPA %#x unmapped in VM %d", gpaA, vmA.VMID)
	}
	if err := vmB.HostPT.Map(addr.PageToVA(gpaB), maA, addr.PermRO, false); err != nil {
		return err
	}
	vmA.HostPT.SetPerm(addr.PageToVA(gpaA), addr.PermRO)
	hv.ContentShares.Inc()
	return nil
}

// BreakContentShare gives vm's gPA frame a private machine copy again
// after a write permission fault.
func (hv *Hypervisor) BreakContentShare(vm *VM, gpa uint64) error {
	ma, ok := hv.Machine.AllocFrame()
	if !ok {
		return fmt.Errorf("virt: out of machine memory for CoW")
	}
	return vm.HostPT.Map(addr.PageToVA(gpa), ma, addr.PermRW, false)
}

// Walk2DResult reports a two-dimensional page walk.
type Walk2DResult struct {
	// Path lists every machine address read: up to 4 host-walk reads per
	// guest level plus the guest PTE itself, plus the final host walk of
	// the data gPA — 24 reads for a full walk. It aliases the walker's
	// buffer and is valid until the walker's next Walk.
	Path []addr.PA
	// GuestPTE is the guest leaf (gVA -> gPA).
	GuestPTE pagetable.PTE
	// GPA is the guest-physical address of the data.
	GPA addr.GPA
	// MA is the final machine address.
	MA addr.PA
	// HostShared reports a hypervisor-induced synonym on the data page.
	HostShared bool
	OK         bool
	// NestedTLBHits counts host walks skipped by the nested TLB.
	NestedTLBHits int
}

// Walker2D performs nested (gVA -> gPA -> MA) walks for one VM. A nested
// TLB (gPA -> MA) models the translation caching that state-of-the-art 2D
// walkers use to skip host walks.
type Walker2D struct {
	VM *VM
	// NestedTLB may be nil to model a walker without host-walk caching.
	NestedTLB *tlb.TLB
	// Accesses counts total memory reads issued by walks.
	Accesses stats.Counter
	// path is the reused buffer behind Walk2DResult.Path.
	path []addr.PA
}

// NewWalker2D creates a 2D walker; withNestedTLB adds a 64-entry nested TLB.
func NewWalker2D(vm *VM, withNestedTLB bool) *Walker2D {
	w := &Walker2D{VM: vm}
	if withNestedTLB {
		w.NestedTLB = tlb.New(tlb.Config{Name: "nested-tlb", Entries: 64, Ways: 8, Latency: 1})
	}
	return w
}

// hostPath appends to the walk path the machine addresses needed to
// translate one gPA, consulting the nested TLB first, and returns the MA.
func (w *Walker2D) hostPath(gpa addr.GPA) (ma addr.PA, shared, ok bool) {
	vpn := uint64(gpa) >> addr.PageBits
	if w.NestedTLB != nil {
		if e, ok := w.NestedTLB.Lookup(hostASID(w.VM.VMID), vpn); ok {
			return addr.FrameToPA(e.PFN) + addr.PA(uint64(gpa)&(addr.PageSize-1)), e.Shared, true
		}
	}
	hostWalk, n, pte, ok := w.VM.HostPT.WalkPath(addr.VA(gpa))
	w.path = append(w.path, hostWalk[:n]...)
	if !ok {
		return 0, false, false
	}
	if w.NestedTLB != nil {
		w.NestedTLB.Insert(tlb.Entry{
			ASID: hostASID(w.VM.VMID), VPN: vpn, PFN: pte.Frame,
			Perm: pte.Perm, Shared: pte.Shared,
		})
	}
	return addr.FrameToPA(pte.Frame) + addr.PA(uint64(gpa)&(addr.PageSize-1)), pte.Shared, true
}

// Walk translates (asid, gva) through the guest tables of process p and
// the host tables, recording every memory access a hardware 2D walker
// would issue.
func (w *Walker2D) Walk(p *osmodel.Process, gva addr.VA) Walk2DResult {
	w.path = w.path[:0]
	res := w.walk(p, gva)
	res.Path = w.path
	w.Accesses.Add(uint64(len(w.path)))
	return res
}

// walk performs Walk, appending the reads to w.path and leaving
// res.Path unset.
func (w *Walker2D) walk(p *osmodel.Process, gva addr.VA) (res Walk2DResult) {
	guestPath, n, guestPTE, ok := p.PT.WalkPath(gva)
	// Each guest-table read is at a gPA that itself needs host translation.
	for _, gSlot := range guestPath[:n] {
		before := len(w.path)
		ma, _, hok := w.hostPath(addr.GPA(gSlot))
		if len(w.path) == before {
			res.NestedTLBHits++
		}
		if !hok {
			return res
		}
		w.path = append(w.path, ma) // the guest PTE read itself
	}
	if !ok {
		return res
	}
	res.GuestPTE = guestPTE
	if guestPTE.Huge {
		// A 2 MiB guest leaf keeps the low 21 bits of the gVA.
		res.GPA = addr.GPA(uint64(guestPTE.Frame)<<addr.PageBits | uint64(gva)&(addr.HugePageSize-1))
	} else {
		res.GPA = addr.GPA(uint64(guestPTE.Frame)<<addr.PageBits | uint64(gva.PageOffset()))
	}
	before := len(w.path)
	ma, hostShared, hok := w.hostPath(res.GPA)
	if len(w.path) == before {
		res.NestedTLBHits++
	}
	if !hok {
		return res
	}
	res.MA = ma
	res.HostShared = hostShared
	res.OK = true
	return res
}
