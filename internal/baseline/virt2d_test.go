package baseline

import (
	"math/rand"
	"testing"

	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/virt"
)

func setupVirt2D(t *testing.T) (*Virt2D, *virt.VM, *osmodel.Process) {
	t.Helper()
	hv := virt.NewHypervisor(2 << 30)
	vm, err := hv.NewVM(512<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVirt2D(smallConfig(1), vm)
	p, err := vm.Kernel.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	return v, vm, p
}

func TestVirt2DTranslatesToMachineAddress(t *testing.T) {
	v, vm, p := setupVirt2D(t)
	gva, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	res := v.Access(core.Request{Kind: cache.Read, VA: gva, Proc: p})
	if res.Fault {
		t.Fatal("fault")
	}
	if v.Counts.Walks != 1 {
		t.Errorf("2D walks = %d", v.Counts.Walks)
	}
	gpa, _ := p.PT.Translate(gva)
	ma, _ := vm.TranslateGPA(addr.GPA(gpa))
	if v.Hierarchy().LLC().Probe(addr.PhysName(ma)) == nil {
		t.Error("data not cached at the machine address")
	}
	// TLB hit on the second access: no more walks.
	v.Access(core.Request{Kind: cache.Read, VA: gva, Proc: p})
	if v.Counts.Walks != 1 {
		t.Error("warm access walked again")
	}
	if v.Name() != "virt-2d-baseline" {
		t.Error("name")
	}
}

func TestVirt2DWalkCostExceedsNativeWalk(t *testing.T) {
	// The virtualization tax: a cold 2D walk reads up to 24 PTEs versus 4
	// for a native walk, so TLB-miss-heavy workloads suffer far more.
	v, _, p := setupVirt2D(t)
	gva, _ := p.Mmap(256<<20, addr.PermRW, osmodel.MmapOpts{})
	rng := rand.New(rand.NewSource(2))
	var total uint64
	const n = 3000
	for i := 0; i < n; i++ {
		va := gva + addr.VA(rng.Uint64()%(256<<20))
		total += v.Access(core.Request{Kind: cache.Read, VA: va, Proc: p}).Latency
	}

	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 30})
	c := NewConventional(smallConfig(1), k)
	pn, _ := k.NewProcess()
	nva, _ := pn.Mmap(256<<20, addr.PermRW, osmodel.MmapOpts{})
	rng2 := rand.New(rand.NewSource(2))
	var nativeTotal uint64
	for i := 0; i < n; i++ {
		va := nva + addr.VA(rng2.Uint64()%(256<<20))
		nativeTotal += c.Access(core.Request{Kind: cache.Read, VA: va, Proc: pn}).Latency
	}
	if total <= nativeTotal {
		t.Errorf("virtualized walks (%d) not costlier than native (%d)", total, nativeTotal)
	}
}

func TestVirt2DShootdownSink(t *testing.T) {
	v, _, p := setupVirt2D(t)
	gva, _ := p.Mmap(addr.PageSize, addr.PermRW, osmodel.MmapOpts{})
	v.Access(core.Request{Kind: cache.Read, VA: gva, Proc: p})
	if err := v.vm.Kernel.MarkShared(p, gva, addr.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, ok := v.tlbs[0].L1.Probe(p.ASID, gva.Page()); ok {
		t.Error("TLB entry survived shootdown")
	}
}
