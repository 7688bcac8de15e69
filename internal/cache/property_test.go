package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hybridvc/internal/addr"
)

// lruModel is a reference model of a cache: each set is a list of its
// resident lines, most recently used first. It has no ways, so it says
// nothing about where a line sits, only which lines are resident, in what
// order, and what each fill displaces.
type lruModel struct {
	ways  int
	sets  [][]modelLine
	stats struct{ hits, misses, evicted, writebacks uint64 }
}

type modelLine struct {
	name addr.Name
	line Line
}

func (m *lruModel) set(n addr.Name) *[]modelLine {
	return &m.sets[n.Line()%uint64(len(m.sets))]
}

// index returns n's position in its set, or -1.
func (m *lruModel) index(n addr.Name) int {
	for i, ml := range *m.set(n) {
		if ml.name == n {
			return i
		}
	}
	return -1
}

// probe returns n's line without touching recency, or nil.
func (m *lruModel) probe(n addr.Name) *Line {
	if i := m.index(n); i >= 0 {
		return &(*m.set(n))[i].line
	}
	return nil
}

// touch makes n the most recent line of its set and returns it, or nil.
func (m *lruModel) touch(n addr.Name) *Line {
	i := m.index(n)
	if i < 0 {
		return nil
	}
	s := *m.set(n)
	ml := s[i]
	copy(s[1:i+1], s[:i])
	s[0] = ml
	return &s[0].line
}

func (m *lruModel) access(n addr.Name) *Line {
	l := m.touch(n)
	if l != nil {
		m.stats.hits++
	} else {
		m.stats.misses++
	}
	return l
}

func (m *lruModel) fill(n addr.Name, l Line) (v Victim, evicted bool) {
	if p := m.touch(n); p != nil {
		*p = l
		return Victim{}, false
	}
	s := m.set(n)
	if len(*s) == m.ways {
		last := (*s)[m.ways-1]
		v, evicted = Victim{Name: last.name, Dirty: last.line.Dirty()}, true
		m.stats.evicted++
		if v.Dirty {
			m.stats.writebacks++
		}
		*s = (*s)[:m.ways-1]
	}
	*s = append([]modelLine{{n, l}}, *s...)
	return v, evicted
}

// flush removes every line match accepts, counting them and the dirty ones.
func (m *lruModel) flush(match func(addr.Name) bool) (flushed, dirty int) {
	for si, s := range m.sets {
		kept := s[:0]
		for _, ml := range s {
			if !match(ml.name) {
				kept = append(kept, ml)
				continue
			}
			flushed++
			if ml.line.Dirty() {
				dirty++
			}
		}
		m.sets[si] = kept
	}
	return flushed, dirty
}

func (m *lruModel) occupancy() int {
	n := 0
	for _, s := range m.sets {
		n += len(s)
	}
	return n
}

// The operations the model test drives; modelOpMix weights them so sets
// stay mostly full while every kind of removal still happens.
const (
	opAccess = iota
	opFill
	opAccessFill
	opFillAbsent
	opInvalidate
	opDowngrade
	opFlushPage
	opFlushMatching
)

var modelOpMix = [...]int{
	opAccess, opAccess, opAccess, opFill, opFill, opFill, opAccessFill, opAccessFill,
	opAccessFill, opFillAbsent, opFillAbsent, opInvalidate, opInvalidate, opDowngrade,
	opFlushPage, opFlushMatching,
}

var (
	modelStates = [...]State{Shared, Exclusive, Modified}
	modelPerms  = [...]addr.Perm{addr.PermRO, addr.PermRW}
)

// modelOp is one step: an operation, the pool index of the name it acts
// on (for FlushMatching, the residue class of pool indices it flushes),
// and the state and permission a fill installs.
type modelOp struct {
	kind  int
	name  int
	state State
	perm  addr.Perm
}

// modelSets is the set count of every model cache: few sets, so each one
// sees many more names than it has ways.
const modelSets = 2

// modelHarness runs one cache beside an lruModel of the same geometry.
type modelHarness struct {
	c     *Cache
	m     *lruModel
	names []addr.Name
	index map[addr.Name]int
}

func newModelHarness(ways int, rng *rand.Rand) *modelHarness {
	c := New(Config{Name: fmt.Sprintf("%d-way", ways), SizeBytes: modelSets * ways * addr.LineSize, Ways: ways, HitLatency: 1})
	h := &modelHarness{
		c: c, m: &lruModel{ways: ways, sets: make([][]modelLine, modelSets)},
		names: modelNames(2*ways+4, rng), index: map[addr.Name]int{},
	}
	for i, n := range h.names {
		h.index[n] = i
	}
	return h
}

// modelNames returns perSet names for each of the model's sets, drawn
// from eight pages in three address spaces (two ASIDs and physical), so
// names differ in their address, their ASID or their synonym bit alone.
func modelNames(perSet int, rng *rand.Rand) []addr.Name {
	const lines = 8 * addr.PageSize / addr.LineSize
	var names []addr.Name
	seen := map[addr.Name]bool{}
	for si := 0; si < modelSets; si++ {
		for len(names) < (si+1)*perSet {
			a := uint64(rng.Intn(lines/modelSets)*modelSets+si) * addr.LineSize
			n := pn(a)
			if space := rng.Intn(3); space < 2 {
				n = vn(addr.MakeASID(0, uint32(space+1)), a)
			}
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	return names
}

// step applies op to the cache and the model and reports the first
// disagreement: in a result, in the statistics, in Probe for any pool
// name, in Occupancy, or in the cache's own set invariants.
func (h *modelHarness) step(op modelOp) error {
	c, m := h.c, h.m
	n := h.names[op.name%len(h.names)]
	fill := Line{State: op.state, Perm: op.perm}
	switch op.kind {
	case opAccess:
		got, want := c.Access(n), m.access(n)
		if (got == nil) != (want == nil) || got != nil && *got != *want {
			return fmt.Errorf("Access(%v) = %v, want %v", n, got, want)
		}
	case opFill, opFillAbsent:
		var v Victim
		var ev bool
		if op.kind == opFillAbsent {
			if m.probe(n) != nil {
				return nil // fillAbsent requires an absent name
			}
			_, v, ev = c.fillAbsent(n, op.state, op.perm)
		} else {
			v, ev = c.Fill(n, op.state, op.perm)
		}
		if wv, wev := m.fill(n, fill); ev != wev || v != wv {
			return fmt.Errorf("fill %v: victim %+v (%v), want %+v (%v)", n, v, ev, wv, wev)
		}
	case opAccessFill:
		l, v, ev := c.AccessFill(n, op.state, op.perm)
		want := m.access(n)
		var wv Victim
		var wev bool
		if want == nil {
			wv, wev = m.fill(n, fill)
		}
		if (l == nil) != (want == nil) || l != nil && *l != *want || ev != wev || v != wv {
			return fmt.Errorf("AccessFill(%v) = %v, %+v (%v); want %v, %+v (%v)", n, l, v, ev, want, wv, wev)
		}
	case opInvalidate:
		d, p := c.Invalidate(n)
		wl := m.probe(n)
		wd := wl != nil && wl.Dirty()
		m.flush(func(x addr.Name) bool { return x == n })
		if d != wd || p != (wl != nil) {
			return fmt.Errorf("Invalidate(%v) = %v, %v; want %v, %v", n, d, p, wd, wl != nil)
		}
	case opDowngrade:
		d := c.Downgrade(n)
		wd := false
		if wl := m.probe(n); wl != nil {
			wd = wl.Dirty()
			wl.State = Shared
		}
		if d != wd {
			return fmt.Errorf("Downgrade(%v) = %v, want %v", n, d, wd)
		}
	case opFlushPage:
		f, d := c.FlushPage(n)
		if wf, wd := m.flush(func(x addr.Name) bool { return x.SamePage(n) }); f != wf || d != wd {
			return fmt.Errorf("FlushPage(%v) = %d, %d; want %d, %d", n, f, d, wf, wd)
		}
	case opFlushMatching:
		match := func(x addr.Name) bool { return h.index[x]%3 == op.name%3 }
		f, d := c.FlushMatching(match)
		if wf, wd := m.flush(match); f != wf || d != wd {
			return fmt.Errorf("FlushMatching(class %d) = %d, %d; want %d, %d", op.name%3, f, d, wf, wd)
		}
	}
	if got, want := [4]uint64{c.Stats.Hits.Value(), c.Stats.Misses.Value(), c.Evicted.Value(), c.WriteBks.Value()},
		[4]uint64{m.stats.hits, m.stats.misses, m.stats.evicted, m.stats.writebacks}; got != want {
		return fmt.Errorf("hits, misses, evictions, writebacks = %v, want %v", got, want)
	}
	for _, x := range h.names {
		got, want := c.Probe(x), m.probe(x)
		if (got == nil) != (want == nil) || got != nil && *got != *want {
			return fmt.Errorf("Probe(%v) = %v, want %v", x, got, want)
		}
	}
	if got, want := c.Occupancy(), m.occupancy(); got != want {
		return fmt.Errorf("Occupancy = %d, want %d", got, want)
	}
	return c.checkSets()
}

// TestCacheMatchesLRUReference drives random operations through caches of
// 1, 2, 4, 8 and 16 ways and through a true-LRU model of each: every hit
// or miss, victim and its dirtiness, Probe result, count and occupancy
// must agree, and the cache's set invariants must hold after every step.
func TestCacheMatchesLRUReference(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(21 + ways)))
			h := newModelHarness(ways, rng)
			for i := 0; i < 4000; i++ {
				op := modelOp{
					kind:  modelOpMix[rng.Intn(len(modelOpMix))],
					name:  rng.Intn(len(h.names)),
					state: modelStates[rng.Intn(len(modelStates))],
					perm:  modelPerms[rng.Intn(len(modelPerms))],
				}
				if err := h.step(op); err != nil {
					t.Fatalf("step %d %+v: %v", i, op, err)
				}
			}
			if h.m.stats.evicted == 0 || h.m.stats.hits == 0 {
				t.Fatalf("no evictions or no hits (%+v): the traffic does not exercise replacement", h.m.stats)
			}
		})
	}
}

// FuzzCacheMatchesLRUModel is TestCacheMatchesLRUReference with the
// geometry and the operations decoded from the input: the first byte picks
// 1 to 16 ways, and each following pair of bytes is one operation.
func FuzzCacheMatchesLRUModel(f *testing.F) {
	f.Add([]byte{3, 0, 1, 3, 2, 6, 3, 9, 4, 11, 5, 14, 6, 15, 7})
	f.Add([]byte{15, 0x13, 0, 0x23, 1, 0x33, 2, 0x43, 3, 0x53, 4, 0x0b, 0, 0x10, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		ways := 1 + int(in[0])%maxWays
		h := newModelHarness(ways, rand.New(rand.NewSource(int64(ways))))
		for i := 1; i+1 < len(in); i += 2 {
			b := int(in[i])
			op := modelOp{
				kind:  modelOpMix[b%len(modelOpMix)],
				name:  int(in[i+1]),
				state: modelStates[b/len(modelOpMix)%len(modelStates)],
				perm:  modelPerms[b/len(modelOpMix)/len(modelStates)%len(modelPerms)],
			}
			if err := h.step(op); err != nil {
				t.Fatalf("op %d %+v: %v", i/2, op, err)
			}
		}
	})
}

// TestCacheSetIndexingProperty: lines differing only above the set-index
// bits always land in the same set; FlushMatching over everything empties
// the cache.
func TestCacheSetIndexingProperty(t *testing.T) {
	f := func(lineA, lineB uint16) bool {
		c := New(Config{Name: "p", SizeBytes: 4 << 10, Ways: 4, HitLatency: 1})
		asid := addr.MakeASID(0, 1)
		a := addr.VirtName(asid, addr.VA(lineA)*addr.LineSize)
		b := addr.VirtName(asid, addr.VA(lineB)*addr.LineSize)
		c.Fill(a, Exclusive, addr.PermRW)
		c.Fill(b, Modified, addr.PermRW)
		want := 2
		if a == b {
			want = 1
		}
		if c.Occupancy() != want {
			return false
		}
		flushed, _ := c.FlushMatching(func(addr.Name) bool { return true })
		return flushed == want && c.Occupancy() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHierarchyWritebackConservation: every dirty line eventually either
// stays cached or appears in a writeback — no dirty data silently vanishes.
func TestHierarchyWritebackConservation(t *testing.T) {
	h := testHierarchy(1)
	asid := addr.MakeASID(0, 1)
	written := map[addr.Name]bool{}
	writtenBack := map[addr.Name]bool{}
	rng := rand.New(rand.NewSource(31))
	for step := 0; step < 5000; step++ {
		n := addr.VirtName(asid, addr.VA(rng.Intn(1024))*addr.LineSize)
		kind := Read
		if rng.Intn(3) == 0 {
			kind = Write
			written[n] = true
		}
		res := h.Access(0, kind, n, addr.PermRW)
		for _, wb := range res.Writebacks {
			writtenBack[wb] = true
		}
	}
	// Each written line is either still cached somewhere (dirty or clean)
	// or was written back.
	for n := range written {
		if writtenBack[n] {
			continue
		}
		if h.LLC().Probe(n) != nil || h.L2(0).Probe(n) != nil || h.L1D(0).Probe(n) != nil {
			continue
		}
		t.Fatalf("dirty line %v vanished without a writeback", n)
	}
}
