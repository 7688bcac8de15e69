package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"hybridvc/internal/addr"
)

// flushPageScan is the whole-cache reference for FlushPage: it decodes
// every valid way and invalidates those whose name is in the page.
func flushPageScan(c *Cache, page addr.Name) (flushed, dirty int) {
	return c.FlushMatching(func(n addr.Name) bool { return n.SamePage(page) })
}

// setPagePermScan is the whole-cache reference for SetPagePerm.
func setPagePermScan(c *Cache, page addr.Name, perm addr.Perm) (updated int) {
	for i := range c.keys {
		if c.keys[i] != 0 && c.nameAt(uint64(i)).SamePage(page) {
			c.meta[i].Perm = perm
			updated++
		}
	}
	return updated
}

// cloneCache copies c's ways so a reference can run beside it.
func cloneCache(c *Cache) *Cache {
	d := *c
	d.keys = append([]uint64(nil), c.keys...)
	d.recency = append([]uint64(nil), c.recency...)
	d.meta = append([]Line(nil), c.meta...)
	return &d
}

// waysDiff names the first set whose recency word, or way whose key,
// state or permission, differs between got and want; it returns "" when
// everything agrees.
func waysDiff(got, want *Cache) string {
	for si := range want.recency {
		if got.recency[si] != want.recency[si] {
			return fmt.Sprintf("set %d: recency word %#x, want %#x", si, got.recency[si], want.recency[si])
		}
	}
	for i := range want.keys {
		if got.keys[i] != want.keys[i] || got.meta[i] != want.meta[i] {
			return fmt.Sprintf("way %d: key %#x %+v, want key %#x %+v", i,
				got.keys[i], got.meta[i], want.keys[i], want.meta[i])
		}
	}
	return ""
}

// pageFlushNames draws block names for the page-flush tests. Most fall in
// a few adjacent target pages, so a flushed page has many resident lines
// and so do its neighbours; the rest scatter to keep every set busy. Kinds,
// the synonym bit and three ASIDs vary independently, so each target page
// holds lines of several names that differ from it in one field only.
type pageFlushNames struct {
	rng   *rand.Rand
	asids [3]addr.ASID
}

const (
	pageFlushTargets = 4
	pageFlushBase    = 0x7000_0000_0000
)

func (g *pageFlushNames) name(scatter bool) addr.Name {
	n := addr.Name{
		Kind:    addr.PayloadKind(g.rng.Intn(3)),
		Synonym: g.rng.Intn(2) == 0,
		ASID:    g.asids[g.rng.Intn(len(g.asids))],
	}
	page := uint64(g.rng.Intn(pageFlushTargets))
	if scatter {
		page = uint64(g.rng.Intn(1 << 16))
	}
	n.Addr = pageFlushBase + page*addr.PageSize + uint64(g.rng.Intn(addr.PageSize/addr.LineSize))*addr.LineSize
	return n
}

// representative returns a name for a target page that is not page
// aligned: it points at one of the page's lines past the first.
func (g *pageFlushNames) representative() addr.Name {
	n := g.name(false)
	n.Addr = n.Addr&^(addr.PageSize-1) + uint64(1+g.rng.Intn(addr.PageSize/addr.LineSize-1))*addr.LineSize
	return n
}

var pageFlushPerms = []addr.Perm{addr.PermRO, addr.PermRW}

func (g *pageFlushNames) perm() addr.Perm { return pageFlushPerms[g.rng.Intn(len(pageFlushPerms))] }

func (g *pageFlushNames) fill(c *Cache, n int) {
	states := []State{Shared, Exclusive, Modified}
	for i := 0; i < n; i++ {
		c.Fill(g.name(g.rng.Intn(4) == 0), states[g.rng.Intn(len(states))], g.perm())
	}
}

// TestPageOpsMatchWholeCacheScan checks FlushPage and SetPagePerm, which
// look up a page's 64 line names, against the whole-cache scan they
// replace, on an L1-sized and an LLC-sized cache filled at random: the
// counts, every set's recency word, and every way's key, state and
// permission must agree.
func TestPageOpsMatchWholeCacheScan(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "L1D", SizeBytes: 32 << 10, Ways: 4, HitLatency: 4},
		{Name: "LLC", SizeBytes: 2 << 20, Ways: 16, HitLatency: 27},
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			c := New(cfg)
			g := &pageFlushNames{rng: rand.New(rand.NewSource(7)),
				asids: [3]addr.ASID{addr.MakeASID(0, 1), addr.MakeASID(0, 2), addr.MakeASID(1, 1)}}
			lines := cfg.SizeBytes / addr.LineSize
			g.fill(c, 2*lines)
			flushedAny, updatedAny := false, false
			for op := 0; op < 200; op++ {
				page := g.representative()
				ref := cloneCache(c)
				if op%2 == 0 {
					f, d := c.FlushPage(page)
					wf, wd := flushPageScan(ref, page)
					if f != wf || d != wd {
						t.Fatalf("op %d FlushPage(%v) = %d flushed, %d dirty; want %d, %d", op, page, f, d, wf, wd)
					}
					flushedAny = flushedAny || f > 0
				} else {
					perm := g.perm()
					u := c.SetPagePerm(page, perm)
					if wu := setPagePermScan(ref, page, perm); u != wu {
						t.Fatalf("op %d SetPagePerm(%v) = %d updated; want %d", op, page, u, wu)
					}
					updatedAny = updatedAny || u > 0
				}
				if d := waysDiff(c, ref); d != "" {
					t.Fatalf("op %d on %v: %s", op, page, d)
				}
				g.fill(c, lines/16)
			}
			if !flushedAny || !updatedAny {
				t.Fatalf("no page op found a line (flushed %v, updated %v): the fill misses the target pages", flushedAny, updatedAny)
			}
		})
	}
}

// hierarchyCaches lists every cache of h: each core's L1D, L1I and L2 in
// core order, then the LLC.
func hierarchyCaches(h *Hierarchy) []*Cache {
	var cs []*Cache
	for c := range h.l2 {
		cs = append(cs, h.l1d[c], h.l1i[c], h.l2[c])
	}
	return append(cs, h.llc)
}

// cloneHierarchy copies h's caches so a reference can run beside it. The
// reference visits caches directly, so it shares h's directory state.
func cloneHierarchy(h *Hierarchy) *Hierarchy {
	d := *h
	d.l1d, d.l1i, d.l2 = nil, nil, nil
	for c := range h.l2 {
		d.l1d = append(d.l1d, cloneCache(h.l1d[c]))
		d.l1i = append(d.l1i, cloneCache(h.l1i[c]))
		d.l2 = append(d.l2, cloneCache(h.l2[c]))
	}
	d.llc = cloneCache(h.llc)
	return &d
}

// TestHierarchyPageOpsMatchWholeHierarchyScan checks the hierarchy's
// FlushPage, SetPagePerm and FlushName, which look each line up in the
// LLC and visit only the cores its holder mask names, against visiting
// every cache of a 4-core hierarchy filled by random accesses: the counts,
// every set's recency word, and every way's key, state and permission
// must agree, and CheckInvariants (exact holder masks included) must hold
// after every operation.
func TestHierarchyPageOpsMatchWholeHierarchyScan(t *testing.T) {
	const cores = 4
	// Every cache has at least 64 sets, so a page's lines fall in distinct
	// sets of each, as in the default geometry.
	h := NewHierarchy(HierarchyConfig{
		NumCores: cores,
		L1I:      Config{Name: "L1I", SizeBytes: 8 << 10, Ways: 2, HitLatency: 2},
		L1D:      Config{Name: "L1D", SizeBytes: 8 << 10, Ways: 2, HitLatency: 4},
		L2:       Config{Name: "L2", SizeBytes: 32 << 10, Ways: 4, HitLatency: 6},
		LLC:      Config{Name: "LLC", SizeBytes: 128 << 10, Ways: 8, HitLatency: 27},
	})
	g := &pageFlushNames{rng: rand.New(rand.NewSource(7)),
		asids: [3]addr.ASID{addr.MakeASID(0, 1), addr.MakeASID(0, 2), addr.MakeASID(1, 1)}}
	data := func(n addr.Name) addr.Name {
		n.Kind = addr.PayloadData
		return n
	}
	kinds := []AccessKind{Read, Write, Fetch}
	drive := func(refs int) {
		for i := 0; i < refs; i++ {
			h.Access(g.rng.Intn(cores), kinds[g.rng.Intn(len(kinds))], data(g.name(g.rng.Intn(4) == 0)), g.perm())
		}
	}
	lines := h.llc.cfg.SizeBytes / addr.LineSize
	drive(2 * lines)
	privateHit := false
	for op := 0; op < 300; op++ {
		page := data(g.representative())
		ref := cloneHierarchy(h)
		refCaches := hierarchyCaches(ref)
		var got, want [2]int
		var perCache []int // the reference's count in each cache
		switch op % 3 {
		case 0:
			got[0], got[1] = h.FlushPage(page)
			for _, pc := range refCaches {
				f, d := flushPageScan(pc, page)
				want[0], want[1] = want[0]+f, want[1]+d
				perCache = append(perCache, f)
			}
		case 1:
			perm := g.perm()
			got[0] = h.SetPagePerm(page, perm)
			for _, pc := range refCaches {
				u := setPagePermScan(pc, page, perm)
				want[0] += u
				perCache = append(perCache, u)
			}
		case 2:
			got[0] = h.FlushName(page)
			for _, pc := range refCaches {
				f := 0
				if _, ok := pc.Invalidate(page); ok {
					f = 1
				}
				want[0] += f
				perCache = append(perCache, f)
			}
		}
		if got != want {
			t.Fatalf("op %d on %v: counts %v, want %v", op, page, got, want)
		}
		for i, pc := range hierarchyCaches(h) {
			if d := waysDiff(pc, refCaches[i]); d != "" {
				t.Fatalf("op %d on %v: %s: %s", op, page, pc.cfg.Name, d)
			}
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("op %d on %v: %v", op, page, err)
		}
		for _, n := range perCache[:len(perCache)-1] {
			privateHit = privateHit || n > 0
		}
		drive(lines / 16)
	}
	if !privateHit {
		t.Fatal("no page operation reached a private copy: the accesses miss the target pages")
	}
}
