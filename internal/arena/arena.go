package arena

import (
	"slices"
	"strconv"

	"paxq/internal/xmltree"
)

// Tree is the columnar form of a frozen xmltree.Tree. Node i of the arena
// is the node with xmltree.NodeID i (Freeze assigns dense preorder IDs, so
// preorder rank and NodeID coincide). All slices have one entry per node;
// -1 marks an absent index. A Tree is immutable after FromTree — callers
// must not mutate any column — and therefore safe for concurrent readers.
type Tree struct {
	n int

	// LabelID is the interned label per element node, -1 for text nodes.
	LabelID []int32
	// Parent, FirstChild and NextSibling encode the tree structure.
	Parent      []int32
	FirstChild  []int32
	NextSibling []int32
	// SubtreeEnd is the exclusive preorder end of node i's subtree: the
	// descendants of i are exactly the indices in (i, SubtreeEnd[i]).
	SubtreeEnd []int32
	// Value is the precomputed string value of every element node
	// (xmltree.Node.Value semantics) and the raw character data of every
	// text node — one string column for both kinds. NumVal is the numeric
	// value of every element node; NumOK marks the elements whose value
	// parses as a number.
	Value  []string
	NumVal []float64
	NumOK  Bitset

	// Attributes are sparse (most nodes carry none), so they are stored
	// per attributed node rather than per node: attrNodes lists those
	// nodes ascending and attrLists[k] holds attrNodes[k]'s attributes.
	attrNodes []int32
	attrLists [][]xmltree.Attr

	labels     []string         // label id -> label
	labelIDs   map[string]int32 // label -> label id
	labelMasks []Bitset         // label id -> element mask
	elements   Bitset
	emptyMask  Bitset // all-zero; returned for labels the document lacks
}

// FromTree builds the columnar layout of t. The arena index of every node
// equals its xmltree.NodeID.
func FromTree(t *xmltree.Tree) *Tree {
	nodes := t.PreorderNodes()
	n := len(nodes)
	a := &Tree{
		n:           n,
		LabelID:     make([]int32, n),
		Parent:      make([]int32, n),
		FirstChild:  make([]int32, n),
		NextSibling: make([]int32, n),
		SubtreeEnd:  make([]int32, n),
		Value:       make([]string, n),
		NumVal:      make([]float64, n),
		NumOK:       NewBitset(n),
		labelIDs:    make(map[string]int32),
		elements:    NewBitset(n),
		emptyMask:   NewBitset(n),
	}
	// Indices default to "absent" before the links are wired: a parent is
	// visited before its children, so sibling links written while visiting
	// it must survive the children's own iterations.
	for i := range a.Parent {
		a.Parent[i] = -1
		a.FirstChild[i] = -1
		a.NextSibling[i] = -1
	}
	for i, nd := range nodes {
		if nd.Parent != nil {
			a.Parent[i] = int32(nd.Parent.ID)
		}
		for ci, c := range nd.Children {
			if ci == 0 {
				a.FirstChild[i] = int32(c.ID)
			}
			if ci+1 < len(nd.Children) {
				a.NextSibling[c.ID] = int32(nd.Children[ci+1].ID)
			}
		}
		if nd.Kind == xmltree.Element {
			a.elements.Set(i)
			id, ok := a.labelIDs[nd.Label]
			if !ok {
				id = int32(len(a.labels))
				a.labelIDs[nd.Label] = id
				a.labels = append(a.labels, nd.Label)
				a.labelMasks = append(a.labelMasks, NewBitset(n))
			}
			a.LabelID[i] = id
			a.labelMasks[id].Set(i)
			a.addAttrs(i, nd.Attrs)
			v := nd.Value()
			a.Value[i] = v
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				a.NumVal[i] = f
				a.NumOK.Set(i)
			}
		} else {
			a.LabelID[i] = -1
			a.Value[i] = nd.Data
		}
	}
	// SubtreeEnd in reverse preorder: a leaf's subtree ends right after it;
	// an inner node's subtree ends where its last child's does.
	for i := n - 1; i >= 0; i-- {
		last := nodes[i].Children
		if len(last) == 0 {
			a.SubtreeEnd[i] = int32(i) + 1
		} else {
			a.SubtreeEnd[i] = a.SubtreeEnd[last[len(last)-1].ID]
		}
	}
	return a
}

// Len returns the number of nodes.
func (a *Tree) Len() int { return a.n }

// LabelOf returns the label of element node i.
func (a *Tree) LabelOf(i int) string { return a.labels[a.LabelID[i]] }

// Attrs returns element node i's attributes. Callers must not mutate the
// returned slice.
func (a *Tree) Attrs(i int) []xmltree.Attr {
	if k, ok := slices.BinarySearch(a.attrNodes, int32(i)); ok {
		return a.attrLists[k]
	}
	return nil
}

// addAttrs records node i's attributes; nodes must be added in ascending
// order. The list shares attrs' backing array, capped so that appending to
// either side never writes into the other.
func (a *Tree) addAttrs(i int, attrs []xmltree.Attr) {
	if len(attrs) > 0 {
		a.attrNodes = append(a.attrNodes, int32(i))
		a.attrLists = append(a.attrLists, attrs[:len(attrs):len(attrs)])
	}
}

// Elements returns the mask of element nodes. Callers must not mutate it.
func (a *Tree) Elements() Bitset { return a.elements }

// LabelMask returns the mask of element nodes labelled label — the all-zero
// mask when no node carries it. Callers must not mutate the result.
func (a *Tree) LabelMask(label string) Bitset {
	if id, ok := a.labelIDs[label]; ok {
		return a.labelMasks[id]
	}
	return a.emptyMask
}

// ToTree reconstructs the pointer form. The result is a fresh tree whose
// node IDs coincide with the arena indices (both are dense preorder).
func (a *Tree) ToTree() *xmltree.Tree {
	built := make([]*xmltree.Node, a.n)
	for i := 0; i < a.n; i++ {
		var nd *xmltree.Node
		if a.LabelID[i] >= 0 {
			nd = xmltree.NewElement(a.LabelOf(i))
			if attrs := a.Attrs(i); len(attrs) > 0 {
				nd.Attrs = append([]xmltree.Attr(nil), attrs...)
			}
		} else {
			nd = xmltree.NewText(a.Value[i])
		}
		built[i] = nd
		// Preorder guarantees a parent precedes its children and siblings
		// appear in document order, so appending here preserves child order.
		if p := a.Parent[i]; p >= 0 {
			built[p].Append(nd)
		}
	}
	return xmltree.NewTree(built[0])
}

// ParentScatter computes into dst the set of nodes with at least one child
// in src — the QCV aggregation, "some child starts a match". dst is
// overwritten; src and dst must not alias.
func (a *Tree) ParentScatter(src, dst Bitset) {
	dst.Zero()
	src.ForEachSet(func(i int) {
		if p := a.Parent[i]; p >= 0 {
			dst.Set(int(p))
		}
	})
}

// RankLen returns the length of the scratch slice StrictDescendants needs.
func (a *Tree) RankLen() int { return a.n + 1 }

// StrictDescendants computes into dst the set of nodes with at least one
// strict descendant in src — the QDV aggregation — as an interval scan
// over the columnar indices: rank becomes the prefix-popcount of src
// (rank[i] = members of src below i), and node i has a member in its
// subtree iff rank counts any set bit inside (i, SubtreeEnd[i]). rank must
// have RankLen() entries; dst is overwritten; src and dst must not alias.
func (a *Tree) StrictDescendants(src Bitset, rank []int32, dst Bitset) {
	r := int32(0)
	for i := 0; i < a.n; i++ {
		rank[i] = r
		if src.Get(i) {
			r++
		}
	}
	rank[a.n] = r
	dst.Zero()
	for i := 0; i < a.n; i++ {
		if end := a.SubtreeEnd[i]; int(end) > i+1 && rank[end] > rank[i+1] {
			dst.Set(i)
		}
	}
}
