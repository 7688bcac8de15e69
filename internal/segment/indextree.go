package segment

import (
	"fmt"

	"hybridvc/internal/addr"
	"hybridvc/internal/mem"
)

// Index tree geometry (Section IV-C): each node occupies one 64-byte cache
// block and holds six keys with seven values, so 2048 segments fit in a
// tree of depth four.
const (
	// NodeKeys is the maximum keys per node.
	NodeKeys = 6
	// NodeChildren is the maximum children per internal node.
	NodeChildren = 7
	// NodesPerPage is how many 64 B nodes fit in a 4 KiB frame.
	NodesPerPage = addr.PageSize / addr.LineSize
)

// NodeArena materializes index tree nodes at physical addresses so the
// index cache (a physically addressed cache of 64 B blocks) can cache them
// and so node fetches are charged as memory accesses. Node *contents* are
// kept in Go structures rather than encoded into their frames; the
// paper's hardware packs six keys and seven values into a 64 B line with
// field compression, which affects only the encoding, not the traffic.
type NodeArena struct {
	alloc  *mem.Allocator
	frames []addr.PA
	next   int // next free node slot within the last frame
	// Live counts nodes currently allocated.
	Live int
}

// NewNodeArena creates an arena drawing frames from alloc.
func NewNodeArena(alloc *mem.Allocator) *NodeArena {
	return &NodeArena{alloc: alloc}
}

// newNodePA assigns the physical address for a new node.
func (a *NodeArena) newNodePA() (addr.PA, error) {
	if len(a.frames) == 0 || a.next == NodesPerPage {
		f, ok := a.alloc.AllocFrame()
		if !ok {
			return 0, fmt.Errorf("segment: out of memory for index tree nodes")
		}
		a.frames = append(a.frames, f)
		a.next = 0
	}
	pa := a.frames[len(a.frames)-1] + addr.PA(a.next*addr.LineSize)
	a.next++
	a.Live++
	return pa, nil
}

// Reset releases every frame (used when the tree is rebuilt).
func (a *NodeArena) Reset() {
	for _, f := range a.frames {
		a.alloc.Free(f, 1)
	}
	a.frames = a.frames[:0]
	a.next = 0
	a.Live = 0
}

// TreeEntry is one (segment start key, segment ID) pair.
type TreeEntry struct {
	Key   Key
	Value ID
}

// node is one index tree node, pinned at a physical line address.
type node struct {
	pa       addr.PA
	leaf     bool
	keys     []Key
	values   []ID    // leaf only, parallel to keys
	children []*node // internal only, len(keys)+1
	// prev/next doubly link the leaves so predecessor lookups can step
	// left past leaves drained by lazy deletion (each hop costs one more
	// node fetch, charged in the walk path).
	prev, next *node
}

// IndexTree is the OS-maintained B-tree mapping ASID+VA to segment IDs.
// It is bulk-built from the sorted segment list, which keeps it perfectly
// balanced.
type IndexTree struct {
	arena *NodeArena
	root  *node
	depth int
	count int
}

// NewIndexTree creates an empty tree.
func NewIndexTree(arena *NodeArena) *IndexTree {
	return &IndexTree{arena: arena}
}

// Depth returns the number of node levels (0 for an empty tree).
func (t *IndexTree) Depth() int { return t.depth }

// Len returns the number of entries.
func (t *IndexTree) Len() int { return t.count }

// NodeCount returns the number of materialized nodes.
func (t *IndexTree) NodeCount() int { return t.arena.Live }

// Build replaces the tree contents with the given entries, which must be
// sorted by key and duplicate-free. It panics on unsorted input: the
// manager always supplies a sorted segment list.
func (t *IndexTree) Build(entries []TreeEntry) {
	for i := 1; i < len(entries); i++ {
		if entries[i].Key <= entries[i-1].Key {
			panic("segment: Build input not strictly sorted")
		}
	}
	t.arena.Reset()
	t.root = nil
	t.depth = 0
	t.count = len(entries)
	if len(entries) == 0 {
		return
	}

	// Leaf level: chunk entries into nodes of at most NodeKeys.
	var level []*node
	for start := 0; start < len(entries); start += NodeKeys {
		end := start + NodeKeys
		if end > len(entries) {
			end = len(entries)
		}
		n := &node{leaf: true}
		for _, e := range entries[start:end] {
			n.keys = append(n.keys, e.Key)
			n.values = append(n.values, e.Value)
		}
		if len(level) > 0 {
			prev := level[len(level)-1]
			prev.next = n
			n.prev = prev
		}
		level = append(level, n)
	}
	t.depth = 1

	// Internal levels: group children by NodeChildren per parent. A
	// parent's separator key i is the minimum key of child i+1's subtree.
	for len(level) > 1 {
		var parents []*node
		for start := 0; start < len(level); start += NodeChildren {
			end := start + NodeChildren
			if end > len(level) {
				end = len(level)
			}
			p := &node{}
			p.children = append(p.children, level[start:end]...)
			for _, c := range level[start+1 : end] {
				p.keys = append(p.keys, c.minKey())
			}
			parents = append(parents, p)
		}
		level = parents
		t.depth++
	}
	t.root = level[0]
	t.assignAddresses()
}

// minKey returns the smallest key in the node's subtree.
func (n *node) minKey() Key {
	for !n.leaf {
		n = n.children[0]
	}
	return n.keys[0]
}

// assignAddresses pins every node at a physical line, breadth-first so
// sibling nodes share frames (good spatial locality in the index cache).
func (t *IndexTree) assignAddresses() {
	queue := []*node{t.root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		pa, err := t.arena.newNodePA()
		if err != nil {
			panic(err) // tree nodes are tiny; exhaustion means misconfiguration
		}
		n.pa = pa
		if !n.leaf {
			queue = append(queue, n.children...)
		}
	}
}

// Lookup walks the tree for the segment whose start key is the greatest
// key <= MakeKey(asid, va). It returns the segment ID (or NoID), and the
// physical addresses of the nodes visited — the accesses a hardware walker
// issues against the index cache.
func (t *IndexTree) Lookup(asid addr.ASID, va addr.VA) (ID, []addr.PA) {
	if t.root == nil {
		return NoID, nil
	}
	return t.LookupInto(asid, va, make([]addr.PA, 0, t.depth))
}

// LookupInto is Lookup appending the visited node addresses into path
// (reusing its backing array) instead of allocating per walk; the
// translator passes a scratch slice it owns.
func (t *IndexTree) LookupInto(asid addr.ASID, va addr.VA, path []addr.PA) (ID, []addr.PA) {
	if t.root == nil {
		return NoID, path
	}
	key := MakeKey(asid, va)
	n := t.root
	for {
		path = append(path, n.pa)
		if n.leaf {
			// Greatest entry key <= key, stepping to left siblings when
			// lazy deletion drained this leaf's range.
			for n != nil {
				for i := len(n.keys) - 1; i >= 0; i-- {
					if n.keys[i] <= key {
						return n.values[i], path
					}
				}
				n = n.prev
				if n != nil {
					path = append(path, n.pa)
				}
			}
			return NoID, path
		}
		// The leftmost child whose subtree may contain the predecessor:
		// route right past every separator <= key.
		i := 0
		for i < len(n.keys) && n.keys[i] <= key {
			i++
		}
		n = n.children[i]
	}
}

// checkInvariants validates B-tree structure; tests use it.
func (t *IndexTree) checkInvariants() error {
	if t.root == nil {
		return nil
	}
	var walk func(n *node, depth int, lo, hi Key) (int, error)
	walk = func(n *node, depth int, lo, hi Key) (int, error) {
		// Lazy deletion may drain a leaf completely; internal nodes never
		// lose keys, so only leaves (and the root) may be empty.
		if len(n.keys) == 0 && n != t.root && !n.leaf {
			return 0, fmt.Errorf("empty internal node")
		}
		if len(n.keys) > NodeKeys {
			return 0, fmt.Errorf("node has %d keys", len(n.keys))
		}
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i] <= n.keys[i-1] {
				return 0, fmt.Errorf("unsorted keys")
			}
		}
		for _, k := range n.keys {
			if k < lo || k > hi {
				return 0, fmt.Errorf("key %d outside [%d,%d]", k, lo, hi)
			}
		}
		if n.leaf {
			if len(n.values) != len(n.keys) {
				return 0, fmt.Errorf("leaf values/keys mismatch")
			}
			return depth, nil
		}
		if len(n.children) != len(n.keys)+1 {
			return 0, fmt.Errorf("children/keys mismatch")
		}
		want := -1
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i] - 1
			}
			d, err := walk(c, depth+1, clo, chi)
			if err != nil {
				return 0, err
			}
			if want == -1 {
				want = d
			} else if d != want {
				return 0, fmt.Errorf("unbalanced leaves")
			}
		}
		return want, nil
	}
	_, err := walk(t.root, 1, 0, ^Key(0))
	return err
}
