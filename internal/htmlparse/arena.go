package htmlparse

import "unsafe"

// nodeArena hands out Node values from chunked slabs, replacing one heap
// allocation per node with one per arenaChunk nodes. Slabs are owned by
// the document built from them (its nodes point into the slab arrays)
// until the parse that built it says otherwise: a document handed to the
// caller keeps its slabs, and Parser.release forgets them, so two
// documents never share a backing array. Only a scoped parse
// (ParseScoped), whose Result dies when its callback returns, gives its
// slabs back: recycle clears every node it handed out and keeps up to
// keptSlabs of the cleared slabs, which any later parse in the same
// pooled Parser draws from before allocating.
type nodeArena struct {
	slab []Node // unused tail of the current slab
	// used lists every slab this parse drew from, the current one last;
	// kept holds cleared slabs for the next parse.
	used  [][]Node //hv:view the document's slabs, cleared and kept by a scoped parse
	kept  [][]Node //hv:view cleared slabs, handed to the next parse's nodes
	nodes int      // total nodes served, for the htmlparse_arena_nodes_total metric
	slabs int      // total slabs allocated
}

const (
	arenaChunk = 256
	// keptBytes bounds what an idle pooled Parser holds on to. At the
	// 144-byte Node a slab is 36 KiB, so 4 MiB keeps 113 slabs, 28,928
	// nodes. The bound was sized from repair documents of 8-256 KiB,
	// whose trees reach about 16,000 nodes: the whole tree of the input's
	// check goes back to the parser, and the check of the repaired
	// candidate builds from it. The corpus pages of the study and serve
	// workloads build at most about 130 nodes, one slab, so the bound
	// does not change what those parsers hold. A page that builds more
	// than the bound returns the rest to the GC.
	keptBytes = 4 << 20
	keptSlabs = keptBytes / (arenaChunk * int(unsafe.Sizeof(Node{})))
)

func (a *nodeArena) new() *Node {
	if len(a.slab) == 0 {
		a.grow()
	}
	n := &a.slab[0]
	a.slab = a.slab[1:]
	a.nodes++
	return n
}

// grow starts a new slab, a kept one if there is one.
func (a *nodeArena) grow() {
	if k := len(a.kept); k > 0 {
		a.slab = a.kept[k-1]
		a.kept[k-1] = nil
		a.kept = a.kept[:k-1]
	} else {
		a.slab = make([]Node, arenaChunk)
		a.slabs++
	}
	a.used = append(a.used, a.slab)
}

// recycle clears every node the finished document used and keeps up to
// keptSlabs of its slabs. Nothing may point into the document any more.
func (a *nodeArena) recycle() {
	if a.kept == nil {
		// Sized once, so the kept list never outgrows the bound.
		a.kept = make([][]Node, 0, keptSlabs)
	}
	last := len(a.used) - 1
	for i, s := range a.used {
		if i == last {
			// The current slab's unused tail was never written.
			s = s[:len(s)-len(a.slab)]
		}
		clear(s)
		if len(a.kept) < keptSlabs {
			a.kept = append(a.kept, a.used[i])
		}
	}
	a.forget()
}

// forget drops the arena's references to the finished document's slabs,
// leaving them to whoever holds the document, and readies the arena for
// the next one with the kept slabs and the used list's capacity.
func (a *nodeArena) forget() {
	clear(a.used)
	a.used = a.used[:0]
	a.slab = nil
	a.nodes, a.slabs = 0, 0
}
