package parbox

import (
	"testing"
	"testing/quick"

	"paxq/internal/boolexpr"
	"paxq/internal/centeval"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/xpath"
)

func TestVarSchemeDisjoint(t *testing.T) {
	vs := VarScheme{NumPreds: 3, NumSel: 4, NumFrags: 5}
	seen := map[boolexpr.Var]string{}
	record := func(v boolexpr.Var, what string) {
		if v == boolexpr.NoVar {
			t.Fatalf("%s produced NoVar", what)
		}
		if prev, ok := seen[v]; ok {
			t.Fatalf("variable collision: %s and %s both map to %d", prev, what, v)
		}
		seen[v] = what
	}
	for k := fragment.FragID(0); k < 5; k++ {
		for p := 0; p < 3; p++ {
			record(vs.QV(k, p), "QV")
			record(vs.QDV(k, p), "QDV")
		}
		for i := 0; i < 4; i++ {
			record(vs.SV(k, i), "SV")
		}
	}
	if int(vs.LocalBase()) != len(seen)+1 {
		t.Errorf("LocalBase = %d, want %d", vs.LocalBase(), len(seen)+1)
	}
}

// boolQueryCases pairs Boolean queries with the Fig. 1 tree.
var boolQueryCases = []string{
	`[//stock/code = "GOOG"]`,
	`[//stock/code = "MSFT"]`,
	`[//stock/code = "GOOG" and not(//stock/code = "YHOO")]`,
	`[client/country = "Canada"]`,
	`[client[country = "US"]/broker/market/name = "NASDAQ"]`,
	`[//stock[buy/val() > 380]]`,
	`[//stock[buy/val() > 1000]]`,
	`[client/country = "US" or client/country = "France"]`,
	`[not(//nonexistent)]`,
	`[.]`,
}

func fig1Fragmentation(t testing.TB, cutsK int, seed int64) *fragment.Fragmentation {
	t.Helper()
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, cutsK, seed))
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestEvalBooleanAgainstCentralized(t *testing.T) {
	tr := testutil.PaperTree()
	for _, k := range []int{0, 1, 3, 6} {
		ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, k, int64(k)+7))
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range boolQueryCases {
			c := xpath.MustCompile(src)
			want := centeval.EvalBool(tr, c)
			got, err := EvalBoolean(ft, c)
			if err != nil {
				t.Fatalf("k=%d %q: %v", k, src, err)
			}
			if got != want {
				t.Errorf("k=%d %q: ParBoX=%v centralized=%v", k, src, got, want)
			}
		}
	}
}

func TestEvalBooleanRejectsSelectingQuery(t *testing.T) {
	ft := fig1Fragmentation(t, 2, 1)
	if _, err := EvalBoolean(ft, xpath.MustCompile("/clientele/client")); err == nil {
		t.Fatal("data-selecting query must be rejected")
	}
}

func TestEvalQualFragmentLeafIsGround(t *testing.T) {
	// Leaf fragments have no virtual nodes, so their root vectors must
	// contain no variables (paper: "vectors of leaf fragments ... contain
	// no variables").
	ft := fig1Fragmentation(t, 4, 3)
	c := xpath.MustCompile(`[//stock/code = "GOOG" and //market/name = "NYSE"]`)
	vs := NewVarScheme(c, ft.Len())
	for _, f := range ft.Frags {
		q := EvalQualFragment(f, c, vs)
		if !f.IsLeaf() {
			continue
		}
		for p := range q.Root.QV {
			if q.Root.QV[p].HasVars() || q.Root.QDV[p].HasVars() {
				t.Errorf("leaf fragment %d has variables in root vectors", f.ID)
			}
		}
	}
}

func TestEvalQualFragmentVirtualVars(t *testing.T) {
	// A fragment's root vectors may only mention variables of its direct
	// sub-fragments.
	ft := fig1Fragmentation(t, 5, 11)
	c := xpath.MustCompile(`[//a[b]/c = "x"]`)
	vs := NewVarScheme(c, ft.Len())
	for _, f := range ft.Frags {
		q := EvalQualFragment(f, c, vs)
		allowed := map[boolexpr.Var]bool{}
		for _, child := range f.Virtuals() {
			for p := 0; p < vs.NumPreds; p++ {
				allowed[vs.QV(child, p)] = true
				allowed[vs.QDV(child, p)] = true
			}
		}
		var vars []boolexpr.Var
		for p := range q.Root.QV {
			vars = q.Root.QV[p].Vars(vars)
			vars = q.Root.QDV[p].Vars(vars)
		}
		for _, v := range vars {
			if !allowed[v] {
				t.Errorf("fragment %d mentions foreign variable %d", f.ID, v)
			}
		}
	}
}

func TestResolveQualVarsMissingFragment(t *testing.T) {
	vs := VarScheme{NumPreds: 1, NumSel: 2, NumFrags: 2}
	roots := map[fragment.FragID]RootVecs{
		0: {QV: []*boolexpr.Formula{boolexpr.True()}, QDV: []*boolexpr.Formula{boolexpr.True()}},
	}
	if _, err := ResolveQualVars(roots, vs); err == nil {
		t.Fatal("missing fragment must be reported")
	}
}

func TestResolveQualVarsBadArity(t *testing.T) {
	vs := VarScheme{NumPreds: 2, NumSel: 2, NumFrags: 1}
	roots := map[fragment.FragID]RootVecs{
		0: {QV: []*boolexpr.Formula{boolexpr.True()}, QDV: []*boolexpr.Formula{boolexpr.True()}},
	}
	if _, err := ResolveQualVars(roots, vs); err == nil {
		t.Fatal("arity mismatch must be reported")
	}
}

// Property: ParBoX agrees with centralized evaluation for random Boolean
// queries over random trees under random fragmentations.
func TestQuickParBoXVsCentralized(t *testing.T) {
	f := func(treeSeed, cutSeed, querySeed int64, k uint8) bool {
		tr := testutil.RandomTree(treeSeed, 60)
		ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, int(k%10), cutSeed))
		if err != nil {
			return false
		}
		src := "[" + testutil.RandomQuery(querySeed) + "]"
		// RandomQuery may produce an absolute path; qualifiers must be
		// relative, so wrap only relative ones and fall back otherwise.
		c, err := xpath.Compile(src)
		if err != nil {
			return true // skip unparseable wrappings
		}
		want := centeval.EvalBool(tr, c)
		got, err := EvalBoolean(ft, c)
		if err != nil {
			t.Logf("%q: %v", src, err)
			return false
		}
		if got != want {
			t.Logf("%q (tree %d cuts %d k %d): ParBoX=%v want %v", src, treeSeed, cutSeed, k, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEvalQualFragment(b *testing.B) {
	tr := testutil.RandomTree(5, 10000)
	ft := fragment.Whole(tr)
	c := xpath.MustCompile(`[//a[b = "x"]/c]`)
	vs := NewVarScheme(c, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EvalQualFragment(ft.Root(), c, vs)
	}
}

// BenchmarkEvalQualFragmentVector is BenchmarkEvalQualFragment's input run
// through the bit-packed pass sites serve Stage 1 from: the two side by
// side are the scalar-vs-vector kernel comparison. The arena is built
// once, outside the loop, as a site builds it on first Stage-1 use.
func BenchmarkEvalQualFragmentVector(b *testing.B) {
	tr := testutil.RandomTree(5, 10000)
	ft := fragment.Whole(tr)
	c := xpath.MustCompile(`[//a[b = "x"]/c]`)
	vs := NewVarScheme(c, 1)
	ft.Root().Arena()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EvalQualFragmentVector(ft.Root(), c, vs)
	}
}
