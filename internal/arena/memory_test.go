package arena

import (
	"runtime"
	"testing"

	"paxq/internal/xmark"
)

// maxBytesPerNode is the arena's heap budget: one int32 per index column
// (LabelID, Parent, FirstChild, NextSibling, SubtreeEnd), one string
// header in the single Value column, one float64 in NumVal, and a bit per
// label and per node mask — about 54 B/node on XMark, whose 59 labels
// cost 7.4 of them. Values are substrings of the tree's text, not copies
// (xmltree.Node.Value), and attributes are stored only for the nodes that
// carry them. Sites build an arena beside every
// fragment's pointer tree, so growth here is paid on every node served.
const maxBytesPerNode = 56

// TestFromTreeHeapBudget pins the arena's retained heap per node on a
// generated XMark document: the HeapAlloc delta of FromTree, measured
// after garbage collection so only what the arena keeps alive counts.
func TestFromTreeHeapBudget(t *testing.T) {
	// A 2 MB document, the size the serving benchmark's sites hold.
	tree := xmark.Generate(4, xmark.Calibrate().SpecForBytes(500_000), 5)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	a := FromTree(tree)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perNode := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(a.Len())
	runtime.KeepAlive(a)
	runtime.KeepAlive(tree)
	t.Logf("arena: %d nodes, %.1f B/node retained", a.Len(), perNode)
	if perNode > maxBytesPerNode {
		t.Fatalf("FromTree retains %.1f B/node, budget %d", perNode, maxBytesPerNode)
	}
}
