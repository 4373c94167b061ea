// Command servebench is paxq's serving benchmark. It deploys paxq the way
// a user does (paxq.NewCluster over real loopback TCP sites, every option
// at its default), drives one named workload with closed-loop clients for
// a fixed time, checks every answer against centralized evaluation, and
// prints its metrics as one JSON object on the last line of output.
//
//	servebench --workload xmark-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it instead rebuilds the same deployment from the pax
// internals with a tracing transport, proves the traced deployment returns
// what the untraced one does, and prints per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"paxq"
	"paxq/internal/pax"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

func main() {
	name := flag.String("workload", "", "workload: xmark-hot, xmark-cold or xmark-edit")
	seed := flag.Int64("seed", 1, "seed of the document and the operation streams")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	w := workloads[*name]
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	ctx := context.Background()
	v := &verdict{}
	var res *result
	var prov map[string]any
	var err error
	if *trace == 1 {
		// The checkout's build directory: the benchmark writes nowhere else.
		path := fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", w.name, *seed)
		res, prov, err = runTraced(ctx, w, *seed, dur, path, v)
	} else {
		res, prov, err = runUntraced(ctx, w, *seed, dur, v)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	for _, m := range v.msgs {
		fmt.Fprintln(os.Stderr, "servebench: WRONG:", m)
	}
	res.Correct = v.ok()
	pj, _ := json.Marshal(map[string]any{"provenance": prov}) // plain maps of numbers and strings
	fmt.Println(string(pj))
	rj, _ := json.Marshal(res)
	fmt.Println(string(rj))
	if !res.Correct {
		os.Exit(1)
	}
}

// reportFailures prints the first errors of failed ops to standard error;
// the ops count in the result's "failed" field.
func reportFailures(ws ...*window) {
	for _, w := range ws {
		for _, msg := range w.s.errs {
			fmt.Fprintln(os.Stderr, "servebench: failed op:", msg)
		}
	}
}

// provenance records what a run measured and on what.
func provenance(w *workload, seed int64, doc *paxq.Document, m *mirror) map[string]any {
	return map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"clients":    w.clients,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"doc_bytes":  doc.Bytes(),
		"doc_nodes":  doc.Nodes(),
		"fragments":  fragmentSizes(m),
	}
}

func runUntraced(ctx context.Context, w *workload, seed int64, dur time.Duration, v *verdict) (*result, map[string]any, error) {
	ct, doc, warm, times, err := setupCluster(ctx, w, seed, setupRepeats)
	if err != nil {
		return nil, nil, err
	}
	defer ct.close()
	e, err := newEnv(w, seed, ct, doc, warm, nil, v)
	if err != nil {
		return nil, nil, err
	}
	prov := provenance(w, seed, doc, e.m)
	heap := heapMB()
	seen := newSeenSet()
	for _, o := range w.warm(seed) {
		seen.add(o.query)
	}
	win, probe := e.measure(ctx, w, w.streams(seed, 0, seen), dur)
	reportFailures(win, probe)
	_, setupS := medianSetup(times)
	res, samples := endToEnd(win, probe, heap, setupS)
	prov["samples"] = samples
	return res, prov, nil
}

// endToEnd derives the user-visible metrics from a measured window and the
// edit probe that followed it.
func endToEnd(win, probe *window, heap, setupS float64) (*result, map[string]any) {
	windowMs := ms(win.elapsed)
	queries := win.s.queries - win.s.qFailed
	attempted := win.ops() + probe.s.edits
	failed := win.s.failed() + probe.s.failed()
	m := map[string]metric{
		"setup_s":               {setupS, "s"},
		"ops_per_s":             {float64(win.ops()-win.s.failed()) / win.elapsed.Seconds(), "1/s"},
		"query_p50_ms":          {classMedianMs(win.s.qLatMs, win.s.qFail, windowMs), "ms"},
		"query_p90_ms":          {pooledPercentileMs(win.s.qLatMs, win.s.qFail, windowMs, 0.90), "ms"},
		"edit_p50_ms":           {percentileMs(probe.s.eLatMs, probe.s.eFailed, ms(probe.elapsed), 0.50), "ms"},
		"edit_p75_ms":           {percentileMs(probe.s.eLatMs, probe.s.eFailed, ms(probe.elapsed), 0.75), "ms"},
		"bytes_per_query":       {ratio(float64(win.s.qBytes), float64(queries)), "bytes"},
		"site_visits_per_query": {ratio(float64(win.ctr.visits-win.s.eCalls), float64(queries)), "count"},
		"allocs_per_op":         {ratio(float64(win.mem.mallocs), float64(win.ops())), "count"},
		"heap_mb":               {heap, "MB"},
		"ok_frac":               {ratio(float64(attempted-failed), float64(attempted)), "ratio"},
	}
	samples := map[string]any{
		"queries": win.s.queries, "query_classes": len(win.s.qLatMs), "probe_edits": probe.s.edits,
		"window_edits":         win.s.edits,
		"window_edit_p50_ms":   percentileMs(win.s.eLatMs, win.s.eFailed, windowMs, 0.50),
		"window_cpu_ms_per_op": ratio(ms(win.mem.cpu), float64(win.ops())),
	}
	return &result{Attempted: attempted, Failed: failed, Metrics: m}, samples
}

// setupTraced builds the deployment from pax.BuildTCPCluster and
// pax.NewEngine, handing the engine a tracing transport, timing each
// phase; it keeps the last of setupRepeats deployments.
func setupTraced(ctx context.Context, w *workload, seed int64) (*engineTarget, *xmltree.Tree, []queryOut, []setupTimes, error) {
	var times []setupTimes
	var et *engineTarget
	var tree *xmltree.Tree
	var outs []queryOut
	for i := 0; i < setupRepeats; i++ {
		if et != nil {
			et.close()
		}
		t0 := time.Now()
		tree = generateTree(w.mb, seed)
		t1 := time.Now()
		ft, err := cutTree(tree)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		t2 := time.Now()
		topo := pax.RoundRobin(ft, deploySites)
		tcp, sites, stop, err := pax.BuildTCPCluster(topo)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("deploy traced cluster: %w", err)
		}
		et = &engineTarget{ft: ft, eng: pax.NewEngine(topo, tracingTransport{tcp}), tcp: tcp, sites: sites, stop: stop}
		t3 := time.Now()
		if outs, err = warmUp(ctx, et, w.warm(seed)); err != nil {
			et.close()
			return nil, nil, nil, nil, err
		}
		t4 := time.Now()
		times = append(times, setupTimes{xmark: t1.Sub(t0).Seconds(), fragment: t2.Sub(t1).Seconds(),
			deploy: t3.Sub(t2).Seconds(), warm: t4.Sub(t3).Seconds()})
	}
	return et, tree, outs, times, nil
}

// fidelityOps is the length of the serial prefix both deployments run.
const fidelityOps = 16

// fidelity runs the same serial operations on the untraced and the traced
// deployment and demands identical answers, ledger bytes and visits, so
// the trace measures the program the end-to-end run measures.
func fidelity(ctx context.Context, w *workload, seed int64, seen *seenSet, u, t *env) {
	src := w.stream(seed, 900, seen)
	cu0, ct0 := u.tgt.counters(), t.tgt.counters()
	var su, st sample
	for i := 0; i < fidelityOps; i++ {
		o := src.next()
		ou := u.do(ctx, o, w.check, &su)
		ot := t.do(ctx, o, w.check, &st)
		if ou.failed || ot.failed || !slices.Equal(ou.answers, ot.answers) || ou.bytes != ot.bytes || ou.maxVisits != ot.maxVisits {
			t.v.fail("trace fidelity: op %d %v: untraced %d answers/%d bytes/%d visits (failed %v), traced %d/%d/%d (failed %v)",
				i, o, len(ou.answers), ou.bytes, ou.maxVisits, ou.failed, len(ot.answers), ot.bytes, ot.maxVisits, ot.failed)
		}
	}
	du, dt := u.tgt.counters().sub(cu0), t.tgt.counters().sub(ct0)
	if du.sent != dt.sent || du.recv != dt.recv || du.visits != dt.visits {
		t.v.fail("trace fidelity: untraced transport %d/%d bytes %d visits, traced %d/%d bytes %d visits",
			du.sent, du.recv, du.visits, dt.sent, dt.recv, dt.visits)
	}
	u.checkDeferred(su.deferred)
	t.checkDeferred(st.deferred)
	if w.check == checkBound {
		u.checkpoint(ctx)
		t.checkpoint(ctx)
	}
}

func runTraced(ctx context.Context, w *workload, seed int64, dur time.Duration, spansPath string, v *verdict) (*result, map[string]any, error) {
	et, tree, twarm, times, err := setupTraced(ctx, w, seed)
	if err != nil {
		return nil, nil, err
	}
	defer et.close()
	tdoc, err := paxq.ParseDocumentString(xmltree.SerializeString(tree.Root))
	if err != nil {
		return nil, nil, fmt.Errorf("traced deployment document: %w", err)
	}
	te, err := newEnv(w, seed, et, tdoc, twarm, newTracer(), v)
	if err != nil {
		return nil, nil, err
	}
	ct, doc, uwarm, _, err := setupCluster(ctx, w, seed, 1)
	if err != nil {
		return nil, nil, err
	}
	defer ct.close()
	ue, err := newEnv(w, seed, ct, doc, uwarm, nil, v)
	if err != nil {
		return nil, nil, err
	}
	prov := provenance(w, seed, doc, ue.m)
	seen := newSeenSet()
	for _, o := range w.warm(seed) {
		seen.add(o.query)
	}
	fidelity(ctx, w, seed, seen, ue, te)

	runtime.GC()
	uwin := ue.runWindow(ctx, w, w.streams(seed, 0, seen), dur/2)
	te.tr = newTracer() // the fidelity prefix's spans are not measured
	twin, tprobe := te.measure(ctx, w, w.streams(seed, 100, seen), dur/2)
	reportFailures(uwin, twin, tprobe)
	if err := te.tr.writeSpans(spansPath); err != nil {
		return nil, nil, err
	}

	out := map[string]metric{}
	te.tr.stageMetrics(out)
	planUs, err := te.tr.planMicros(func(q string) (time.Duration, error) {
		t0 := time.Now()
		c, err := xpath.Compile(q)
		if err != nil {
			return 0, fmt.Errorf("plan %q: %w", q, err)
		}
		pax.AnalyzeRelevance(et.ft, c)
		return time.Since(t0), nil
	})
	if err != nil {
		return nil, nil, err
	}
	queries := float64(twin.s.queries - twin.s.qFailed)
	out["coord.plan_us"] = metric{ratio(planUs, queries), "us"}
	out["site.parallel_ratio"] = metric{ratio(float64(twin.s.parallel), float64(twin.s.total)), "ratio"}

	var all sample
	all.merge(&twin.s)
	all.merge(&tprobe.s)
	cache := twin.ctr.cache
	cache.Merge(tprobe.ctr.cache)
	edits := float64(all.edits - all.eFailed)
	out["sitecache.hit_ratio"] = metric{ratio(float64(cache.Hits), float64(cache.Hits+cache.Misses)), "ratio"}
	out["sitecache.evictions"] = metric{float64(cache.Evictions), "count"}
	out["sitecache.retained_per_edit"] = metric{ratio(float64(cache.ScopedRetained), edits), "count"}
	out["sitecache.dropped_per_edit"] = metric{ratio(float64(cache.ScopedInvalidations), edits), "count"}
	out["fragment.apply_us"] = metric{median(all.applyUs), "us"}
	out["edit.patched"] = metric{ratio(float64(all.patched), edits), "count"}
	out["edit.retained"] = metric{ratio(float64(all.retained), edits), "count"}
	out["edit.dropped"] = metric{ratio(float64(all.dropped), edits), "count"}
	out["runtime.gc_cycles_per_kop"] = metric{ratio(float64(twin.mem.numGC), float64(twin.ops())/1000), "1/kop"}
	out["runtime.gc_pause_ms_per_s"] = metric{float64(twin.mem.pauseNs) / 1e6 / twin.elapsed.Seconds(), "ms/s"}
	out["runtime.cpu_ms_per_op"] = metric{ratio(ms(twin.mem.cpu), float64(twin.ops())), "ms"}
	// Edit latency under concurrent queries (xmark-edit only): too few
	// samples per run to bound, so it is reported here, not end to end.
	out["edit.load_p50_ms"] = metric{percentileMs(twin.s.eLatMs, twin.s.eFailed, ms(twin.elapsed), 0.50), "ms"}
	out["edit.load_p75_ms"] = metric{percentileMs(twin.s.eLatMs, twin.s.eFailed, ms(twin.elapsed), 0.75), "ms"}
	st, _ := medianSetup(times)
	out["setup.xmark_s"] = metric{st.xmark, "s"}
	out["setup.fragment_s"] = metric{st.fragment, "s"}
	out["setup.deploy_s"] = metric{st.deploy, "s"}
	out["setup.warm_s"] = metric{st.warm, "s"}
	tops := float64(twin.ops()-twin.s.failed()) / twin.elapsed.Seconds()
	uops := float64(uwin.ops()-uwin.s.failed()) / uwin.elapsed.Seconds()
	out["trace.ops_per_s"] = metric{tops, "1/s"}
	out["trace.overhead_ratio"] = metric{ratio(tops, uops), "ratio"}

	prov["samples"] = map[string]int{"queries": twin.s.queries, "edits": all.edits, "untraced_ops": uwin.ops()}
	prov["spans"] = spansPath
	attempted := uwin.ops() + twin.ops() + tprobe.s.edits
	failed := uwin.s.failed() + twin.s.failed() + tprobe.s.failed()
	return &result{Attempted: attempted, Failed: failed, Metrics: out}, prov, nil
}
