package arena

import (
	"testing"

	"paxq/internal/testutil"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
)

// requireRoundTrip asserts FromTree/ToTree is the identity on t's
// structure and that the columnar indices are mutually consistent.
func requireRoundTrip(t *testing.T, tag string, tree *xmltree.Tree) {
	t.Helper()
	a := FromTree(tree)
	if a.Len() != tree.Size() {
		t.Fatalf("%s: arena has %d nodes, tree %d", tag, a.Len(), tree.Size())
	}
	back := a.ToTree()
	if !xmltree.DeepEqual(tree.Root, back.Root) {
		t.Fatalf("%s: round trip is not the identity", tag)
	}
	// The arena index must be the NodeID, and the index columns must agree
	// with the pointer structure.
	for _, nd := range tree.PreorderNodes() {
		i := int(nd.ID)
		if nd.Parent == nil {
			if a.Parent[i] != -1 {
				t.Fatalf("%s: node %d: Parent = %d, want -1", tag, i, a.Parent[i])
			}
		} else if a.Parent[i] != int32(nd.Parent.ID) {
			t.Fatalf("%s: node %d: Parent = %d, want %d", tag, i, a.Parent[i], nd.Parent.ID)
		}
		if nd.Kind == xmltree.Element {
			if !a.Elements().Get(i) || a.LabelOf(i) != nd.Label {
				t.Fatalf("%s: node %d: element column mismatch", tag, i)
			}
			if !a.LabelMask(nd.Label).Get(i) {
				t.Fatalf("%s: node %d: missing from label mask %q", tag, i, nd.Label)
			}
			if a.Value[i] != nd.Value() {
				t.Fatalf("%s: node %d: Value = %q, want %q", tag, i, a.Value[i], nd.Value())
			}
			nv, ok := nd.NumValue()
			if ok != a.NumOK.Get(i) || (ok && nv != a.NumVal[i]) {
				t.Fatalf("%s: node %d: numeric column mismatch", tag, i)
			}
		} else if a.Elements().Get(i) || a.Value[i] != nd.Data {
			t.Fatalf("%s: node %d: text column mismatch", tag, i)
		}
		// Subtree interval = preorder descendants.
		size := 0
		walkCount(nd, &size)
		if got := int(a.SubtreeEnd[i]) - i; got != size {
			t.Fatalf("%s: node %d: subtree size %d via SubtreeEnd, want %d", tag, i, got, size)
		}
		// First-child / next-sibling chain reproduces Children.
		var kids []int32
		for c := a.FirstChild[i]; c >= 0; c = a.NextSibling[c] {
			kids = append(kids, c)
		}
		if len(kids) != len(nd.Children) {
			t.Fatalf("%s: node %d: %d chain children, want %d", tag, i, len(kids), len(nd.Children))
		}
		for ci, c := range nd.Children {
			if kids[ci] != int32(c.ID) {
				t.Fatalf("%s: node %d: child %d is %d, want %d", tag, i, ci, kids[ci], c.ID)
			}
		}
	}
}

func walkCount(n *xmltree.Node, c *int) {
	*c++
	for _, ch := range n.Children {
		walkCount(ch, c)
	}
}

func TestRoundTripEdgeTrees(t *testing.T) {
	// Single node.
	requireRoundTrip(t, "single", xmltree.NewTree(xmltree.NewElement("only")))

	// Deep chain.
	root := xmltree.NewElement("n0")
	cur := root
	for i := 1; i < 200; i++ {
		next := xmltree.NewElement("n")
		cur.Append(next)
		cur = next
	}
	cur.Append(xmltree.NewText("leaf"))
	requireRoundTrip(t, "chain", xmltree.NewTree(root))

	// Wide star with mixed text/element children and attributes.
	star := xmltree.NewElement("hub").SetAttr("k", "v")
	for i := 0; i < 300; i++ {
		if i%3 == 0 {
			star.Append(xmltree.NewText("t"))
		} else {
			star.Append(xmltree.ElT("spoke", "42").SetAttr("i", "x"))
		}
	}
	requireRoundTrip(t, "star", xmltree.NewTree(star))
}

func TestRoundTripXMark(t *testing.T) {
	requireRoundTrip(t, "xmark", xmark.Generate(2, xmark.DefaultSite.Scale(0.05), 11))
}

func TestRoundTripRandom(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		requireRoundTrip(t, "random", testutil.RandomTree(seed, 50+int(seed)*30))
	}
}

func TestStructuralJoins(t *testing.T) {
	// a(b(c,d),e(f(g))) with text sprinkled in.
	tree, err := xmltree.ParseString(`<a><b><c>x</c><d/></b><e><f><g/></f></e></a>`)
	if err != nil {
		t.Fatal(err)
	}
	a := FromTree(tree)
	src := NewBitset(a.Len())
	// Mark the nodes labelled c and g.
	for i := 0; i < a.Len(); i++ {
		if a.Elements().Get(i) && (a.LabelOf(i) == "c" || a.LabelOf(i) == "g") {
			src.Set(i)
		}
	}
	parents := NewBitset(a.Len())
	a.ParentScatter(src, parents)
	desc := NewBitset(a.Len())
	a.StrictDescendants(src, make([]int32, a.RankLen()), desc)
	for i := 0; i < a.Len(); i++ {
		if !a.Elements().Get(i) {
			continue
		}
		wantParent := false
		wantDesc := false
		switch a.LabelOf(i) {
		case "b", "f": // direct parents of c / g
			wantParent, wantDesc = true, true
		case "a", "e": // ancestors but not parents
			wantDesc = true
		}
		if parents.Get(i) != wantParent {
			t.Errorf("ParentScatter: node %d (%s) = %v, want %v", i, a.LabelOf(i), parents.Get(i), wantParent)
		}
		if desc.Get(i) != wantDesc {
			t.Errorf("StrictDescendants: node %d (%s) = %v, want %v", i, a.LabelOf(i), desc.Get(i), wantDesc)
		}
	}
}

func TestLabelMaskUnknown(t *testing.T) {
	a := FromTree(xmltree.NewTree(xmltree.NewElement("x")))
	if m := a.LabelMask("nope"); m.Any() {
		t.Fatal("unknown label produced a non-empty mask")
	}
}
