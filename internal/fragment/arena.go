// Columnar companion of a fragment: the arena layout of its tree plus the
// virtual-node and spine masks the vectorized Stage-1 evaluator keys on.

package fragment

import (
	"paxq/internal/arena"
)

// ArenaView is the columnar form of one fragment. Tree is the arena layout
// of the fragment's tree (arena index == xmltree.NodeID). VirtualMask marks
// the virtual nodes — the leaves standing for sub-fragments, whose
// qualifier vectors are unknown variables rather than computable bits.
// SpineMask marks the spine: every proper ancestor of a virtual node. Spine
// nodes are the only positions whose residual formulas can mention
// variables, so a vectorized pass computes ground bits everywhere else and
// falls back to symbolic evaluation exactly on the spine.
type ArenaView struct {
	Tree        *arena.Tree
	VirtualMask arena.Bitset
	SpineMask   arena.Bitset
}

// Arena returns the fragment's columnar view, built on first use (a site's
// first Stage-1 pass over the fragment) and cached. A Fragment value is
// never mutated: edits are copy-on-write — ApplyEdit forces the old
// fragment's arena, splices it into the new Fragment it returns and leaves
// the receiver untouched — so the cached view never goes stale and is safe
// for concurrent readers.
func (f *Fragment) Arena() *ArenaView {
	f.arenaOnce.Do(func() {
		at := arena.FromTree(f.Tree)
		av := &ArenaView{
			Tree:        at,
			VirtualMask: arena.NewBitset(at.Len()),
			SpineMask:   arena.NewBitset(at.Len()),
		}
		for vid := range f.virtuals {
			av.VirtualMask.Set(int(vid))
			for p := at.Parent[vid]; p >= 0; p = at.Parent[p] {
				if av.SpineMask.Get(int(p)) {
					break // ancestors above are already marked
				}
				av.SpineMask.Set(int(p))
			}
		}
		f.arena = av
	})
	return f.arena
}
