package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"paxq"
	"paxq/internal/centeval"
	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/pax"
	"paxq/internal/sitecache"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// target is one deployment under load: the public paxq.Cluster, or the
// same deployment rebuilt from pax internals with a tracing transport.
type target interface {
	query(ctx context.Context, q string, alg pax.Algorithm) (queryOut, error)
	edit(ctx context.Context, e edit) (editOut, error)
	counters() counters
	close()
}

type answerRef struct{ frag, node int }

type queryOut struct {
	answers    []answerRef
	sent, recv int64
	maxVisits  int
	stages     int
	total      time.Duration // Σ site compute
	parallel   time.Duration // Σ over stages of the slowest site's compute
}

type editOut struct {
	sent, recv int64
	// calls counts the site calls the edit made (each is one visit).
	calls                      int
	patched, retained, dropped int
}

// counters are a deployment's cumulative transport and site-cache totals.
type counters struct {
	sent, recv int64
	visits     int
	cache      sitecache.Stats
}

func (c counters) sub(o counters) counters {
	return counters{
		sent: c.sent - o.sent, recv: c.recv - o.recv, visits: c.visits - o.visits,
		cache: sitecache.Stats{
			Hits: c.cache.Hits - o.cache.Hits, Misses: c.cache.Misses - o.cache.Misses,
			Evictions:           c.cache.Evictions - o.cache.Evictions,
			ScopedInvalidations: c.cache.ScopedInvalidations - o.cache.ScopedInvalidations,
			ScopedRetained:      c.cache.ScopedRetained - o.cache.ScopedRetained,
		},
	}
}

func (c *counters) add(o counters) {
	c.sent += o.sent
	c.recv += o.recv
	c.visits += o.visits
	c.cache.Merge(o.cache)
}

// clusterTarget is the deployment a user builds: paxq.NewCluster over real
// loopback TCP sites, every other option at its default.
type clusterTarget struct{ c *paxq.Cluster }

func deployCluster(doc *paxq.Document) (*clusterTarget, error) {
	c, err := paxq.NewCluster(doc, paxq.ClusterOptions{
		CutPaths:  cutPaths,
		Sites:     deploySites,
		Transport: paxq.TransportTCP,
	})
	if err != nil {
		return nil, fmt.Errorf("deploy cluster: %w", err)
	}
	return &clusterTarget{c: c}, nil
}

func (t *clusterTarget) query(ctx context.Context, q string, alg pax.Algorithm) (queryOut, error) {
	name := "pax2"
	if alg == pax.PaX3 {
		name = "pax3"
	}
	ans, st, err := t.c.QueryContext(ctx, q, paxq.QueryOptions{Algorithm: name, Annotations: true})
	if err != nil {
		return queryOut{}, err
	}
	out := queryOut{
		answers: make([]answerRef, len(ans)),
		sent:    st.BytesSent, recv: st.BytesReceived, maxVisits: st.MaxSiteVisits, stages: st.Stages,
		total: st.TotalCompute, parallel: st.ParallelCompute,
	}
	for i, a := range ans {
		out.answers[i] = answerRef{a.Fragment, a.Node}
	}
	return out, nil
}

func (t *clusterTarget) edit(ctx context.Context, e edit) (editOut, error) {
	res, err := t.c.ApplyEditContext(ctx, e.pub)
	if err != nil {
		return editOut{}, err
	}
	return editOut{sent: res.BytesSent, recv: res.BytesReceived, calls: res.Sites + res.Retries, patched: res.Patched, retained: res.Retained, dropped: res.Dropped}, nil
}

func (t *clusterTarget) counters() counters {
	s := t.c.TransportStats()
	return counters{
		sent: s.BytesSent, recv: s.BytesReceived, visits: s.TotalVisits,
		cache: sitecache.Stats{
			Hits: s.SiteCache.Hits, Misses: s.SiteCache.Misses, Evictions: s.SiteCache.Evictions,
			ScopedInvalidations: s.SiteCache.ScopedInvalidations, ScopedRetained: s.SiteCache.ScopedRetained,
		},
	}
}

func (t *clusterTarget) close() { t.c.Close() }

// engineTarget is the same deployment built from pax.BuildTCPCluster and
// pax.NewEngine, with the transport handed to the engine wrapped so the
// benchmark can time every site call.
type engineTarget struct {
	ft    *fragment.Fragmentation // the topology's fragmentation
	eng   *pax.Engine
	tcp   *dist.TCP
	sites []*pax.Site
	stop  func()
}

func (t *engineTarget) query(ctx context.Context, q string, alg pax.Algorithm) (queryOut, error) {
	res, err := t.eng.RunContext(ctx, q, pax.Options{Algorithm: alg, Annotations: true})
	if err != nil {
		return queryOut{}, err
	}
	out := queryOut{
		answers: make([]answerRef, len(res.Answers)),
		sent:    res.BytesSent, recv: res.BytesRecv, maxVisits: res.MaxVisits, stages: res.Stages,
		total: res.TotalCompute, parallel: res.ParallelCompute,
	}
	for i, a := range res.Answers {
		out.answers[i] = answerRef{int(a.Frag), int(a.Node)}
	}
	return out, nil
}

func (t *engineTarget) edit(ctx context.Context, e edit) (editOut, error) {
	res, err := t.eng.ApplyEdit(ctx, fragment.FragID(e.pub.Fragment), e.frag)
	if err != nil {
		return editOut{}, err
	}
	return editOut{sent: res.BytesSent, recv: res.BytesRecv, calls: res.Sites + res.Retries, patched: int(res.Patched), retained: int(res.Retained), dropped: int(res.Dropped)}, nil
}

func (t *engineTarget) counters() counters {
	snap := t.tcp.Metrics().Snapshot()
	c := counters{sent: snap.Sent, recv: snap.Recv, visits: snap.TotalVisits()}
	for _, s := range t.sites {
		c.cache.Merge(s.CacheStats())
	}
	return c
}

func (t *engineTarget) close() { t.stop() }

// generateTree builds the same XMark tree paxq.GenerateXMark does.
func generateTree(mb float64, seed int64) *xmltree.Tree {
	cal := xmark.Calibrate()
	return xmark.Generate(xmarkSites, cal.SpecForBytes(int(mb*1e6/xmarkSites)), seed)
}

// cutTree fragments t at cutPaths exactly as paxq.NewCluster does.
func cutTree(t *xmltree.Tree) (*fragment.Fragmentation, error) {
	var cuts []xmltree.NodeID
	seen := make(map[xmltree.NodeID]bool)
	for _, path := range cutPaths {
		q, err := xpath.Parse(path)
		if err != nil {
			return nil, fmt.Errorf("cut path %q: %w", path, err)
		}
		for _, n := range centeval.EvalNaive(t, q) {
			if n.Parent != nil && !seen[n.ID] {
				seen[n.ID] = true
				cuts = append(cuts, n.ID)
			}
		}
	}
	return fragment.Cut(t, cuts)
}

// mirror is the benchmark's oracle side of one deployment: an independent
// copy of its fragmentation that every applied edit is mirrored onto, the
// seeded edit stream drawn against it, and the centralized answers of the
// unedited document.
type mirror struct {
	doc *paxq.Document
	ft  *fragment.Fragmentation
	gen *editGen
	// oracle caches centralized answers (sorted document node IDs) of the
	// unedited document by query.
	oracle map[string][]int
}

// newMirror parses doc's serialization into an independent tree, so node
// IDs match doc's, and cuts it like the deployment.
func newMirror(doc *paxq.Document, editSeed int64) (*mirror, error) {
	t, err := xmltree.ParseString(doc.XML())
	if err != nil {
		return nil, fmt.Errorf("mirror: %w", err)
	}
	if t.Size() != doc.Nodes() {
		return nil, fmt.Errorf("mirror: reparsed document has %d nodes, want %d", t.Size(), doc.Nodes())
	}
	ft, err := cutTree(t)
	if err != nil {
		return nil, fmt.Errorf("mirror: %w", err)
	}
	return &mirror{doc: doc, ft: ft, gen: newEditGen(editSeed, ft), oracle: make(map[string][]int)}, nil
}

// want returns the centralized answer to q on the unedited document.
func (m *mirror) want(q string) ([]int, error) {
	if ids, ok := m.oracle[q]; ok {
		return ids, nil
	}
	ids, err := centralIDs(m.doc, q)
	if err != nil {
		return nil, err
	}
	m.oracle[q] = ids
	return ids, nil
}

// centralIDs is paxq.EvaluateCentralized's answer to q as sorted node IDs.
func centralIDs(doc *paxq.Document, q string) ([]int, error) {
	ans, err := paxq.EvaluateCentralized(doc, q)
	if err != nil {
		return nil, fmt.Errorf("oracle %q: %w", q, err)
	}
	ids := make([]int, len(ans))
	for i, a := range ans {
		ids[i] = a.Node
	}
	sort.Ints(ids)
	return ids, nil
}

// origIDs maps distributed answers to document node IDs through the
// mirror's origins, sorted. Valid while the mirror's origins are current.
func (m *mirror) origIDs(ans []answerRef) []int {
	out := make([]int, len(ans))
	for i, a := range ans {
		out[i] = int(m.ft.Frag(fragment.FragID(a.frag)).Origin[a.node])
	}
	sort.Ints(out)
	return out
}

// rebuiltOracle evaluates qs centrally on the document reassembled from
// the edited mirror, refreshing the mirror's origins to match.
func (m *mirror) rebuiltOracle(qs []string) (map[string][]int, error) {
	m.ft.RecomputeOrigins()
	t := m.ft.Reassemble()
	out := make(map[string][]int, len(qs))
	for _, q := range qs {
		c, err := xpath.Compile(q)
		if err != nil {
			return nil, fmt.Errorf("oracle %q: %w", q, err)
		}
		var ids []int
		for _, id := range centeval.EvalVector(t, c) {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		out[q] = ids
	}
	return out, nil
}
