// Package arena provides a columnar, cache-friendly layout for frozen
// xmltree documents: every per-node property lives in a contiguous array
// indexed by preorder rank, so the Stage-1 qualifier pass can run as
// word-at-a-time sweeps over bit-packed masks instead of a pointer chase
// over *xmltree.Node structs.
//
// A Tree stores, per node: the interned label id (elements), one string
// column holding the string value (elements) or the character data (text
// nodes), and the parent / first-child / next-sibling /
// subtree-end indices that make both structural axes of the paper's XPath
// fragment X answerable by index arithmetic. Because xmltree.Tree.Freeze
// assigns dense preorder IDs, the arena index of a node IS its
// xmltree.NodeID — the two representations address nodes identically, and
// FromTree/ToTree round-trip losslessly (kinds, labels, data, attributes
// and child order are all preserved).
//
// On top of the layout the package offers Bitset, a packed []uint64 node
// set with allocation-free AND/OR/NOT kernels, and the two structural
// joins the vectorized evaluator needs: ParentScatter (which children sets
// propagate to their parents — the QCV aggregation) and StrictDescendants
// (an interval scan over [i+1, SubtreeEnd(i)) via a prefix-popcount rank
// array — the QDV aggregation). See internal/parbox's vector evaluator and
// ARCHITECTURE.md, "Columnar site storage & vectorized Stage 1".
//
// A Tree is immutable after FromTree and safe for concurrent readers;
// value columns (string and numeric values of every element) and per-label
// element masks are precomputed at construction so query evaluation takes
// no locks and performs no per-query string work beyond comparisons.
package arena
