package arena

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"paxq/internal/xmltree"
)

// This file holds the document-order splice kernels: the columnar twins of
// the pointer-tree edit operations in internal/fragment. A Tree is
// immutable, so every kernel returns a fresh Tree; the input is never
// touched. The kernels renumber by pure index arithmetic — an old index j
// maps to j when j < at and to j+delta when j >= at+oldLen, where delta is
// the node-count change — which is what makes incremental Stage-1 mask
// maintenance (internal/parbox) possible: the same mapping applied to a
// bit-packed mask (SpliceBits) renumbers a whole qualifier vector at once.

// DeleteSubtree returns a new tree with the whole subtree rooted at node
// `at` removed. The root cannot be deleted.
func (a *Tree) DeleteSubtree(at int) (*Tree, error) {
	if at <= 0 || at >= a.n {
		return nil, fmt.Errorf("arena: delete target %d out of range (n=%d, root undeletable)", at, a.n)
	}
	oldLen := int(a.SubtreeEnd[at]) - at
	parent := a.Parent[at]
	// Previous sibling: the child of parent whose NextSibling is at.
	prev := int32(-1)
	for c := a.FirstChild[parent]; c >= 0 && c != int32(at); c = a.NextSibling[c] {
		prev = c
	}
	return a.splice(at, oldLen, parent, prev, a.NextSibling[at], nil)
}

// InsertSubtree returns a new tree with the subtree rooted at repl
// attached as child number pos (counting element and text children alike)
// of element node parent. repl and its descendants are read, never
// retained or mutated.
func (a *Tree) InsertSubtree(parent, pos int, repl *xmltree.Node) (*Tree, error) {
	if parent < 0 || parent >= a.n || !a.elements.Get(parent) {
		return nil, fmt.Errorf("arena: insert parent %d is not an element (n=%d)", parent, a.n)
	}
	if repl == nil {
		return nil, fmt.Errorf("arena: nil insert subtree")
	}
	// Walk the child chain to the insertion slot.
	prev := int32(-1)
	next := a.FirstChild[parent]
	for i := 0; i < pos; i++ {
		if next < 0 {
			return nil, fmt.Errorf("arena: insert position %d beyond %d children of node %d", pos, i, parent)
		}
		prev, next = next, a.NextSibling[next]
	}
	at := parent + 1
	if prev >= 0 {
		at = int(a.SubtreeEnd[prev])
	}
	return a.splice(at, 0, int32(parent), prev, next, repl)
}

// Relabel returns a new tree with element node `node` relabelled. All
// columns the rename cannot touch are shared with the receiver.
func (a *Tree) Relabel(node int, label string) (*Tree, error) {
	if node < 0 || node >= a.n || !a.elements.Get(node) {
		return nil, fmt.Errorf("arena: relabel target %d is not an element (n=%d)", node, a.n)
	}
	b := *a // share every immutable column
	b.LabelID = append([]int32(nil), a.LabelID...)
	b.labels = append([]string(nil), a.labels...)
	b.labelIDs = make(map[string]int32, len(a.labelIDs)+1)
	for l, id := range a.labelIDs {
		b.labelIDs[l] = id
	}
	b.labelMasks = append([]Bitset(nil), a.labelMasks...)
	old := a.LabelID[node]
	oldMask := NewBitset(a.n)
	oldMask.CopyFrom(a.labelMasks[old])
	oldMask.Clear(node)
	b.labelMasks[old] = oldMask
	id, ok := b.labelIDs[label]
	if !ok {
		id = int32(len(b.labels))
		b.labelIDs[label] = id
		b.labels = append(b.labels, label)
		b.labelMasks = append(b.labelMasks, NewBitset(a.n))
	} else {
		m := NewBitset(a.n)
		m.CopyFrom(b.labelMasks[id])
		b.labelMasks[id] = m
	}
	b.labelMasks[id].Set(node)
	b.LabelID[node] = id
	return &b, nil
}

// splice replaces the preorder interval [at, at+oldLen) — a whole subtree
// when oldLen > 0 — with the subtree rooted at repl (nil for a pure
// deletion). parent is the element receiving the splice, prev its child
// preceding the interval (-1 when the interval is/becomes the first
// child), next the child following it (-1 at the end of the child list).
func (a *Tree) splice(at, oldLen int, parent, prev, next int32, repl *xmltree.Node) (*Tree, error) {
	if oldLen > 0 && int(a.SubtreeEnd[at]) != at+oldLen {
		return nil, fmt.Errorf("arena: splice interval [%d,%d) is not a whole subtree", at, at+oldLen)
	}
	// Flatten the replacement subtree in preorder.
	var flat []*xmltree.Node
	var relParent []int32
	var children [][]int32
	var walk func(nd *xmltree.Node, p int32)
	walk = func(nd *xmltree.Node, p int32) {
		idx := int32(len(flat))
		flat = append(flat, nd)
		relParent = append(relParent, p)
		children = append(children, nil)
		if p >= 0 {
			children[p] = append(children[p], idx)
		}
		for _, c := range nd.Children {
			walk(c, idx)
		}
	}
	if repl != nil {
		walk(repl, -1)
	}
	newLen := len(flat)
	delta := newLen - oldLen
	n2 := a.n + delta

	// Ancestor set of the splice parent (parent included): the survivors
	// whose SubtreeEnd grows/shrinks even when it lands exactly on `at`.
	anc := make(map[int32]bool)
	for p := parent; p >= 0; p = a.Parent[p] {
		anc[p] = true
	}
	mapIdx := func(v int32) int32 {
		if v < 0 || int(v) < at {
			return v
		}
		return v + int32(delta)
	}
	// Position mapping for SubtreeEnd values q in (0, n]: positions strictly
	// past the removed interval shift; a position landing exactly on `at`
	// shifts only for the splice parent's ancestors (their subtree contains
	// the spliced interval; a preceding sibling's, ending at the same
	// position, does not).
	mapEnd := func(j int, q int32) int32 {
		if int(q) > at || (int(q) == at && anc[int32(j)]) {
			return q + int32(delta)
		}
		return q
	}

	b := &Tree{
		n:           n2,
		LabelID:     make([]int32, n2),
		Parent:      make([]int32, n2),
		FirstChild:  make([]int32, n2),
		NextSibling: make([]int32, n2),
		SubtreeEnd:  make([]int32, n2),
		Value:       make([]string, n2),
		NumVal:      make([]float64, n2),
		NumOK:       SpliceBits(a.NumOK, at, oldLen, newLen, a.n),
		labels:      append([]string(nil), a.labels...),
		labelIDs:    make(map[string]int32, len(a.labelIDs)),
		elements:    SpliceBits(a.elements, at, oldLen, newLen, a.n),
		emptyMask:   NewBitset(n2),
	}
	for l, id := range a.labelIDs {
		b.labelIDs[l] = id
	}
	b.labelMasks = make([]Bitset, len(a.labelMasks), len(a.labelMasks)+4)
	for i, m := range a.labelMasks {
		b.labelMasks[i] = SpliceBits(m, at, oldLen, newLen, a.n)
	}

	// Attributed nodes before the interval keep their index; those inside
	// it are cut; the inserted ones and then the shifted rest follow below.
	cutStart, _ := slices.BinarySearch(a.attrNodes, int32(at))
	cutEnd, _ := slices.BinarySearch(a.attrNodes, int32(at+oldLen))
	b.attrNodes = append(b.attrNodes, a.attrNodes[:cutStart]...)
	b.attrLists = append(b.attrLists, a.attrLists[:cutStart]...)

	copyCols := func(oldJ, newJ int) {
		b.LabelID[newJ] = a.LabelID[oldJ]
		b.Parent[newJ] = mapIdx(a.Parent[oldJ])
		b.FirstChild[newJ] = mapIdx(a.FirstChild[oldJ])
		b.NextSibling[newJ] = mapIdx(a.NextSibling[oldJ])
		b.SubtreeEnd[newJ] = mapEnd(oldJ, a.SubtreeEnd[oldJ])
		b.Value[newJ] = a.Value[oldJ]
		b.NumVal[newJ] = a.NumVal[oldJ]
	}
	for j := 0; j < at; j++ {
		copyCols(j, j)
	}

	// The inserted interval.
	sizes := make([]int32, newLen) // subtree sizes, computed leaf-up
	for k := newLen - 1; k >= 0; k-- {
		sizes[k] = 1
		for _, c := range children[k] {
			sizes[k] += sizes[c]
		}
	}
	for k := 0; k < newLen; k++ {
		b.FirstChild[at+k] = -1
		b.NextSibling[at+k] = -1
	}
	for k := 0; k < newLen; k++ {
		j := at + k
		nd := flat[k]
		if relParent[k] >= 0 {
			b.Parent[j] = int32(at) + relParent[k]
		} else {
			b.Parent[j] = parent
		}
		if kids := children[k]; len(kids) > 0 {
			b.FirstChild[j] = int32(at) + kids[0]
			for ci := 0; ci+1 < len(kids); ci++ {
				b.NextSibling[int32(at)+kids[ci]] = int32(at) + kids[ci+1]
			}
		}
		b.SubtreeEnd[j] = int32(at+k) + sizes[k]
		if nd.Kind == xmltree.Element {
			b.elements.Set(j)
			id, ok := b.labelIDs[nd.Label]
			if !ok {
				id = int32(len(b.labels))
				b.labelIDs[nd.Label] = id
				b.labels = append(b.labels, nd.Label)
				b.labelMasks = append(b.labelMasks, NewBitset(n2))
			}
			b.LabelID[j] = id
			b.labelMasks[id].Set(j)
			b.addAttrs(j, nd.Attrs)
			v := nd.Value()
			b.Value[j] = v
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				b.NumVal[j] = f
				b.NumOK.Set(j)
			}
		} else {
			b.LabelID[j] = -1
			b.Value[j] = nd.Data
		}
	}
	for j := at + oldLen; j < a.n; j++ {
		copyCols(j, j+delta)
	}
	for k := cutEnd; k < len(a.attrNodes); k++ {
		b.attrNodes = append(b.attrNodes, a.attrNodes[k]+int32(delta))
		b.attrLists = append(b.attrLists, a.attrLists[k])
	}

	// Rewire the child list around the splice point. Pure deletion: the
	// interval leaves the chain. Insertion: the new root enters it.
	if repl == nil {
		if prev >= 0 {
			b.NextSibling[prev] = mapIdx(next)
		} else {
			b.FirstChild[parent] = mapIdx(next)
		}
	} else {
		if prev >= 0 {
			b.NextSibling[prev] = int32(at)
		} else {
			b.FirstChild[parent] = int32(at)
		}
		b.NextSibling[at] = mapIdx(next) // the inserted root precedes the old occupant of the slot
	}
	// The splice parent's string value depends on its immediate text
	// children, which the edit may have changed; recompute it from the
	// rewired child chain (xmltree.Node.Value semantics, including its
	// copy-free single-text-child case).
	var v string
	if c := b.FirstChild[parent]; c >= 0 && b.NextSibling[c] < 0 && !b.elements.Get(int(c)) {
		v = strings.TrimSpace(b.Value[c])
	} else {
		var sb strings.Builder
		for c := b.FirstChild[parent]; c >= 0; c = b.NextSibling[c] {
			if !b.elements.Get(int(c)) {
				sb.WriteString(b.Value[c])
			}
		}
		v = strings.TrimSpace(sb.String())
	}
	b.Value[parent] = v
	b.NumVal[parent] = 0
	b.NumOK.Clear(int(parent))
	if f, err := strconv.ParseFloat(v, 64); err == nil {
		b.NumVal[parent] = f
		b.NumOK.Set(int(parent))
	}
	return b, nil
}

// SpliceBits returns src — a mask over oldN positions — with the bit
// interval [at, at+oldLen) removed and newLen zero bits inserted in its
// place. The result covers oldN-oldLen+newLen positions. This is the mask
// twin of the node renumbering the splice kernels perform, and the
// primitive incremental Stage-1 maintenance patches qualifier vectors
// with.
func SpliceBits(src Bitset, at, oldLen, newLen, oldN int) Bitset {
	n2 := oldN - oldLen + newLen
	out := NewBitset(n2)
	copyBits(out, 0, src, 0, at)
	copyBits(out, at+newLen, src, at+oldLen, oldN-at-oldLen)
	return out
}

// copyBits copies count bits from src starting at srcOff into dst starting
// at dstOff. Word-at-a-time: each iteration moves up to the rest of the
// current destination word.
func copyBits(dst Bitset, dstOff int, src Bitset, srcOff, count int) {
	for count > 0 {
		c := 64 - (dstOff & 63)
		if c > count {
			c = count
		}
		w := readBits(src, srcOff, c)
		wi, sh := dstOff>>6, uint(dstOff&63)
		var mask uint64
		if c == 64 {
			mask = ^uint64(0)
		} else {
			mask = (uint64(1)<<uint(c) - 1) << sh
		}
		dst[wi] = dst[wi]&^mask | (w<<sh)&mask
		srcOff += c
		dstOff += c
		count -= c
	}
}

// Equal reports whether two arenas describe the same document: every
// column, label assignment and attribute list agrees. Label IDs may differ
// (interning order is history-dependent after splices); labels are
// compared by name.
func Equal(a, b *Tree) bool {
	if a.n != b.n {
		return false
	}
	for i := 0; i < a.n; i++ {
		if a.Parent[i] != b.Parent[i] || a.FirstChild[i] != b.FirstChild[i] ||
			a.NextSibling[i] != b.NextSibling[i] || a.SubtreeEnd[i] != b.SubtreeEnd[i] ||
			a.Value[i] != b.Value[i] || a.NumVal[i] != b.NumVal[i] ||
			a.NumOK.Get(i) != b.NumOK.Get(i) || a.elements.Get(i) != b.elements.Get(i) {
			return false
		}
		if a.elements.Get(i) {
			if a.LabelOf(i) != b.LabelOf(i) {
				return false
			}
			ax, bx := a.Attrs(i), b.Attrs(i)
			if len(ax) != len(bx) {
				return false
			}
			for j := range ax {
				if ax[j] != bx[j] {
					return false
				}
			}
		}
	}
	// Masks must agree for both vocabularies (a label absent from one side
	// must have an empty mask on the other).
	for _, l := range append(append([]string(nil), a.labels...), b.labels...) {
		am, bm := a.LabelMask(l), b.LabelMask(l)
		for i := 0; i < a.n; i++ {
			if am.Get(i) != bm.Get(i) {
				return false
			}
		}
	}
	return true
}

// readBits reads c (≤ 64) bits of src starting at bit offset off.
func readBits(src Bitset, off, c int) uint64 {
	wi, sh := off>>6, uint(off&63)
	w := src[wi] >> sh
	if sh > 0 && wi+1 < len(src) {
		w |= src[wi+1] << (64 - sh)
	}
	if c < 64 {
		w &= uint64(1)<<uint(c) - 1
	}
	return w
}
