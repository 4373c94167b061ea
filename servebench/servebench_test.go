package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"paxq"
	"paxq/internal/fragment"
)

// small returns a copy of the named workload over a small document.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w := *workloads[name]
	w.mb = 0.3
	return &w
}

func TestStreamsAreSeeded(t *testing.T) {
	for name, w := range workloads {
		draw := func(seed int64) []op {
			s := w.stream(seed, 0, newSeenSet())
			out := make([]op, 200)
			for i := range out {
				out[i] = s.next()
			}
			return out
		}
		if a, b := draw(7), draw(7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 drew two different streams", name)
		}
		if a, b := draw(7), draw(8); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 drew the same stream", name)
		}
	}
}

func TestColdQueriesAreDistinctAndQualified(t *testing.T) {
	seen := newSeenSet()
	a, b := newColdStream(1, seen), newColdStream(2, seen)
	got := make(map[string]bool)
	for i := 0; i < 500; i++ {
		for _, s := range []*coldStream{a, b} {
			o := s.next()
			if got[o.query] {
				t.Fatalf("query %q drawn twice", o.query)
			}
			got[o.query] = true
			if err := paxq.CompileCheck(o.query); err != nil {
				t.Fatalf("query %q: %v", o.query, err)
			}
		}
	}
}

func TestEditStreamMix(t *testing.T) {
	s := newEditStream(3)
	edits := 0
	for i := 0; i < 500; i++ {
		if s.next().kind == opEdit {
			edits++
		}
	}
	if edits != 100 {
		t.Fatalf("%d edits in 500 ops, want a 4:1 mix", edits)
	}
}

// TestEditsAreSeeded draws edits against two mirrors of one document,
// applying each to its mirror: the same seed must give the same edits.
func TestEditsAreSeeded(t *testing.T) {
	doc := paxq.GenerateXMark(xmarkSites, 0.3, 1)
	draw := func() []paxq.Edit {
		m, err := newMirror(doc, 11)
		if err != nil {
			t.Fatal(err)
		}
		var out []paxq.Edit
		kinds := make(map[string]bool)
		for i := 0; i < 120; i++ {
			ed, err := m.gen.next(m.ft)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.ft.ApplyEdit(fragment.FragID(ed.pub.Fragment), ed.frag); err != nil {
				t.Fatalf("edit %d (%s): %v", i, ed.kind, err)
			}
			kinds[ed.kind] = true
			out = append(out, ed.pub)
		}
		if len(kinds) != 6 {
			t.Errorf("edit kinds drawn: %v, want all 6", kinds)
		}
		return out
	}
	if a, b := draw(), draw(); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different edit streams")
	}
}

// costsOf runs the first n ops of the workload's client-0 stream serially
// on a fresh deployment and returns bytes and visits per query.
func costsOf(t *testing.T, w *workload, seed int64, n int) (bytesPerQuery, visitsPerQuery float64) {
	t.Helper()
	ctx := context.Background()
	ct, doc, warm, _, err := setupCluster(ctx, w, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ct.close()
	v := &verdict{}
	e, err := newEnv(w, seed, ct, doc, warm, nil, v)
	if err != nil {
		t.Fatal(err)
	}
	src := w.stream(seed, 0, newSeenSet())
	var s sample
	c0 := ct.counters()
	for i := 0; i < n; i++ {
		e.do(ctx, src.next(), w.check, &s)
	}
	c := ct.counters().sub(c0)
	e.checkDeferred(s.deferred)
	if !v.ok() {
		t.Fatalf("wrong answers: %v", v.msgs)
	}
	q := float64(s.queries)
	return float64(s.qBytes) / q, float64(c.visits-s.eCalls) / q
}

func TestSingleClientCostsAreDeterministic(t *testing.T) {
	w := small(t, "xmark-cold")
	b1, v1 := costsOf(t, w, 5, 12)
	b2, v2 := costsOf(t, w, 5, 12)
	if b1 != b2 || v1 != v2 {
		t.Fatalf("seed 5: %v bytes %v visits per query, then %v and %v", b1, v1, b2, v2)
	}
}

// TestTracedRunAgrees runs every workload's traced mode briefly on a small
// document: trace fidelity, layer sums and answers must all hold.
func TestTracedRunAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys clusters")
	}
	for _, name := range []string{"xmark-hot", "xmark-cold", "xmark-edit"} {
		w := small(t, name)
		v := &verdict{}
		res, _, err := runTraced(context.Background(), w, 3, 1500*time.Millisecond, t.TempDir()+"/spans.jsonl", v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !v.ok() {
			t.Fatalf("%s: %v", name, v.msgs)
		}
		for _, m := range []string{"coord.self_ms", "dist.call_ms.ans", "site.compute_ms.edit", "trace.overhead_ratio"} {
			if _, ok := res.Metrics[m]; !ok {
				t.Errorf("%s: no %s", name, m)
			}
		}
	}
}
