package xmltree

import (
	"testing"
	"unsafe"
)

// TestNodeSize pins Node at 96 bytes. The allocator rounds every object up
// to a size class; 96 is a class of its own, while one more word (the
// 104 bytes Node had with ID as its last field) lands in the 112-byte
// class. Every node of every tree, fragment and copy pays that difference,
// so a field added or reordered here must keep the struct in the 96 class.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 96 {
		t.Fatalf("unsafe.Sizeof(Node{}) = %d, want 96", got)
	}
}

// TestValueSingleTextChildAllocs: an element whose only child is text —
// every valued element of an XMark document — returns its value as a
// substring of the child's data, with no allocation.
func TestValueSingleTextChildAllocs(t *testing.T) {
	n := ElT("price", "  42.5 \n")
	var v string
	allocs := testing.AllocsPerRun(100, func() { v = n.Value() })
	if allocs != 0 {
		t.Fatalf("Value() allocated %.0f times, want 0", allocs)
	}
	if v != "42.5" {
		t.Fatalf("Value() = %q, want %q", v, "42.5")
	}
}
