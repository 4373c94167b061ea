package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"paxq"
	"paxq/internal/fragment"
	"paxq/internal/pax"
)

// setupRepeats is how many times a run sets its deployment up; setup
// times are the median, and the last deployment is the one measured.
const setupRepeats = 5

// verdict collects correctness failures: wrong answers, broken visit
// bounds, ledger or trace mismatches. Any failure fails the run.
type verdict struct {
	mu    sync.Mutex
	count int
	msgs  []string
}

func (v *verdict) fail(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.count++
	if len(v.msgs) < 20 {
		v.msgs = append(v.msgs, fmt.Sprintf(format, args...))
	}
}

func (v *verdict) ok() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.count == 0
}

func visitBound(alg pax.Algorithm) int {
	if alg == pax.PaX2 {
		return 2
	}
	return 3
}

// checkMode says how a query's answer is checked.
type checkMode int

const (
	checkInline   checkMode = iota // against the precomputed oracle, at once
	checkDeferred                  // kept and checked after the window
	checkBound                     // concurrent edits: the visit bound only
)

// env is one deployment under test with its oracle side.
type env struct {
	tgt    target
	m      *mirror
	tr     *tracer // nil on untraced deployments
	v      *verdict
	editMu sync.Mutex // serializes edit draw, apply and mirror update
}

// sample is what one client observed; samples merge after a window.
type sample struct {
	queries, edits   int
	qFailed, eFailed int
	// qLatMs and qFail hold query latencies and failures per op class.
	qLatMs            map[string][]float64
	qFail             map[string]int
	eLatMs            []float64
	applyUs           []float64
	qBytes, eBytes    int64
	eCalls            int
	patched, retained int
	dropped           int
	total, parallel   time.Duration
	deferred          []answerCheck
	errs              []string
}

type answerCheck struct {
	o   op
	ids []int
}

func (s *sample) merge(o *sample) {
	s.queries += o.queries
	s.edits += o.edits
	s.qFailed += o.qFailed
	s.eFailed += o.eFailed
	for c, xs := range o.qLatMs {
		s.addLat(c, xs...)
	}
	for c, n := range o.qFail {
		s.addFail(c, n)
	}
	s.eLatMs = append(s.eLatMs, o.eLatMs...)
	s.applyUs = append(s.applyUs, o.applyUs...)
	s.qBytes += o.qBytes
	s.eBytes += o.eBytes
	s.eCalls += o.eCalls
	s.patched += o.patched
	s.retained += o.retained
	s.dropped += o.dropped
	s.total += o.total
	s.parallel += o.parallel
	s.deferred = append(s.deferred, o.deferred...)
	if len(s.errs) < 5 {
		s.errs = append(s.errs, o.errs...)
	}
}

func (s *sample) failed() int { return s.qFailed + s.eFailed }

func (s *sample) addLat(c string, ms ...float64) {
	if s.qLatMs == nil {
		s.qLatMs = make(map[string][]float64)
	}
	s.qLatMs[c] = append(s.qLatMs[c], ms...)
}

func (s *sample) addFail(c string, n int) {
	if s.qFail == nil {
		s.qFail = make(map[string]int)
	}
	s.qFail[c] += n
}

func (s *sample) noteErr(o op, err error) {
	if o.kind == opEdit {
		s.eFailed++
	} else {
		s.qFailed++
		s.addFail(o.class, 1)
	}
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf("%v: %v", o, err))
	}
}

// outcome is what one operation returned, for comparing deployments.
type outcome struct {
	answers   []answerRef
	bytes     int64
	maxVisits int
	failed    bool
}

// do issues one operation and records it in s.
func (e *env) do(ctx context.Context, o op, mode checkMode, s *sample) outcome {
	if o.kind == opEdit {
		return e.doEdit(ctx, s)
	}
	var ot *opTrace
	if e.tr != nil {
		ot = e.tr.begin("query")
		ctx = withTrace(ctx, ot)
	}
	start := time.Now()
	out, err := e.tgt.query(ctx, o.query, o.alg)
	end := time.Now()
	s.queries++
	if err != nil {
		s.noteErr(o, err)
		if ot != nil {
			e.tr.endFailed(ot, start, end)
		}
		return outcome{failed: true}
	}
	s.addLat(o.class, ms(end.Sub(start)))
	s.qBytes += out.sent + out.recv
	s.total += out.total
	s.parallel += out.parallel
	if ot != nil {
		e.tr.endQuery(ot, o.query, start, end, out, e.v)
	}
	if out.maxVisits > visitBound(o.alg) {
		e.v.fail("%v: %d visits to one site, bound %d", o, out.maxVisits, visitBound(o.alg))
	}
	switch mode {
	case checkInline:
		want, ok := e.m.oracle[o.query]
		if !ok {
			e.v.fail("%v: no precomputed oracle", o)
		} else if got := e.m.origIDs(out.answers); !slices.Equal(got, want) {
			e.v.fail("%v: %d answers, centralized evaluation has %d", o, len(got), len(want))
		}
	case checkDeferred:
		s.deferred = append(s.deferred, answerCheck{o: o, ids: e.m.origIDs(out.answers)})
	}
	return outcome{answers: out.answers, bytes: out.sent + out.recv, maxVisits: out.maxVisits}
}

// doEdit draws the next edit from the mirror's seeded stream, applies it
// to the deployment and, once acknowledged, to the mirror. Edits are
// serialized, so the k-th edit of a run does not depend on which client
// issues it.
func (e *env) doEdit(ctx context.Context, s *sample) outcome {
	e.editMu.Lock()
	defer e.editMu.Unlock()
	ed, err := e.m.gen.next(e.m.ft)
	if err != nil {
		e.v.fail("edit generator: %v", err)
		return outcome{failed: true}
	}
	var ot *opTrace
	if e.tr != nil {
		ot = e.tr.begin("edit")
		ctx = withTrace(ctx, ot)
	}
	start := time.Now()
	out, err := e.tgt.edit(ctx, ed)
	end := time.Now()
	s.edits++
	if err != nil {
		s.noteErr(op{kind: opEdit}, fmt.Errorf("%s: %w", ed.kind, err))
		if ot != nil {
			e.tr.endFailed(ot, start, end)
		}
		return outcome{failed: true}
	}
	s.eLatMs = append(s.eLatMs, ms(end.Sub(start)))
	s.eBytes += out.sent + out.recv
	s.eCalls += out.calls
	s.patched += out.patched
	s.retained += out.retained
	s.dropped += out.dropped
	if ot != nil {
		e.tr.endEdit(ot, start, end, out.sent+out.recv, e.v)
	}
	t0 := time.Now()
	if _, err := e.m.ft.ApplyEdit(fragment.FragID(ed.pub.Fragment), ed.frag); err != nil {
		e.v.fail("mirror rejected %s edit the deployment applied: %v", ed.kind, err)
	} else {
		s.applyUs = append(s.applyUs, float64(time.Since(t0))/1e3)
	}
	return outcome{bytes: out.sent + out.recv}
}

// memCounters are the process-wide runtime counters a window reads.
type memCounters struct {
	mallocs, numGC, pauseNs uint64
	cpu                     time.Duration // process user + system time
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return memCounters{mallocs: ms.Mallocs, numGC: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs, cpu: cpu}
}

// window is the outcome of one measured closed-loop window.
type window struct {
	elapsed time.Duration
	s       sample
	ctr     counters
	mem     memCounters
}

func (w *window) ops() int { return w.s.queries + w.s.edits }

// run drives one closed-loop client per stream for dur of measured time,
// split into segments; after each segment every client has stopped and
// checkpoint (if any) runs untimed at that quiescent point.
func (e *env) run(ctx context.Context, streams []opSource, dur time.Duration, segments int, mode checkMode, checkpoint func()) *window {
	w := &window{}
	for seg := 0; seg < segments; seg++ {
		m0, c0 := readMem(), e.tgt.counters()
		start := time.Now()
		deadline := start.Add(dur / time.Duration(segments))
		samples := make([]sample, len(streams))
		var wg sync.WaitGroup
		for i, st := range streams {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					e.do(ctx, st.next(), mode, &samples[i])
				}
			}()
		}
		wg.Wait()
		w.elapsed += time.Since(start)
		m1, c1 := readMem(), e.tgt.counters()
		w.mem.mallocs += m1.mallocs - m0.mallocs
		w.mem.numGC += m1.numGC - m0.numGC
		w.mem.pauseNs += m1.pauseNs - m0.pauseNs
		w.mem.cpu += m1.cpu - m0.cpu
		w.ctr.add(c1.sub(c0))
		for i := range samples {
			w.s.merge(&samples[i])
		}
		if checkpoint != nil {
			checkpoint()
		}
	}
	e.checkConservation(w)
	return w
}

// checkConservation asserts that the per-query and per-edit ledgers sum to
// the transport's totals over the window, byte for byte.
func (e *env) checkConservation(w *window) {
	if w.s.failed() > 0 {
		return // failed calls' costs reach no ledger the benchmark sees
	}
	if got, want := w.s.qBytes+w.s.eBytes, w.ctr.sent+w.ctr.recv; got != want {
		e.v.fail("ledgers sum to %d bytes, transport counted %d", got, want)
	}
}

// checkpoint re-evaluates the qualified Fig. 7 pairs against an oracle
// rebuilt from the edited mirror. It runs only while no client is active.
func (e *env) checkpoint(ctx context.Context) {
	oracle, err := e.m.rebuiltOracle([]string{q3, q4})
	if err != nil {
		e.v.fail("checkpoint: %v", err)
		return
	}
	for _, o := range qualifiedPairs() {
		out, err := e.tgt.query(ctx, o.query, o.alg)
		if err != nil {
			e.v.fail("checkpoint %v: %v", o, err)
			continue
		}
		if got, want := e.m.origIDs(out.answers), oracle[o.query]; !slices.Equal(got, want) {
			e.v.fail("checkpoint %v: %d answers, rebuilt centralized evaluation has %d", o, len(got), len(want))
		}
		if out.maxVisits > visitBound(o.alg) {
			e.v.fail("checkpoint %v: %d visits to one site, bound %d", o, out.maxVisits, visitBound(o.alg))
		}
	}
}

// checkDeferred compares kept answers with centralized evaluation of the
// unedited document, on one worker per processor.
func (e *env) checkDeferred(checks []answerCheck) {
	next := make(chan answerCheck)
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				want, err := centralIDs(e.m.doc, c.o.query)
				if err != nil {
					e.v.fail("%v: %v", c.o, err)
				} else if !slices.Equal(c.ids, want) {
					e.v.fail("%v: %d answers, centralized evaluation has %d", c.o, len(c.ids), len(want))
				}
			}
		}()
	}
	for _, c := range checks {
		next <- c
	}
	close(next)
	wg.Wait()
}

// warmUp runs ops once each and returns their outcomes for checking once
// the mirror exists.
func warmUp(ctx context.Context, t target, ops []op) ([]queryOut, error) {
	outs := make([]queryOut, len(ops))
	for i, o := range ops {
		out, err := t.query(ctx, o.query, o.alg)
		if err != nil {
			return nil, fmt.Errorf("warm-up %v: %w", o, err)
		}
		outs[i] = out
	}
	return outs, nil
}

// checkWarm checks warm-up answers and leaves their oracles cached.
func (e *env) checkWarm(ops []op, outs []queryOut) {
	for i, o := range ops {
		want, err := e.m.want(o.query)
		if err != nil {
			e.v.fail("warm-up %v: %v", o, err)
			continue
		}
		if got := e.m.origIDs(outs[i].answers); !slices.Equal(got, want) {
			e.v.fail("warm-up %v: %d answers, centralized evaluation has %d", o, len(got), len(want))
		}
		if outs[i].maxVisits > visitBound(o.alg) {
			e.v.fail("warm-up %v: %d visits to one site, bound %d", o, outs[i].maxVisits, visitBound(o.alg))
		}
	}
}

// probeEdits times n serial edits on the otherwise idle deployment after
// the window, then checks answers on the edited document.
func (e *env) probeEdits(ctx context.Context, n int) *window {
	w := &window{}
	runtime.GC() // start from a collected heap, not the window's garbage
	c0 := e.tgt.counters()
	start := time.Now()
	for i := 0; i < n; i++ {
		e.doEdit(ctx, &w.s)
	}
	w.elapsed = time.Since(start)
	w.ctr = e.tgt.counters().sub(c0)
	e.checkConservation(w)
	e.checkpoint(ctx)
	return w
}

// percentileMs is the q-quantile of latencies, counting each failed op as
// taking the whole window (a failure misses any latency limit).
func percentileMs(lat []float64, failed int, windowMs float64, q float64) float64 {
	xs := append([]float64(nil), lat...)
	for i := 0; i < failed; i++ {
		xs = append(xs, windowMs)
	}
	return quantile(xs, q)
}

// classMedianMs is the geometric mean across op classes of each class's
// median latency. Streams mix classes of very different cost in equal
// shares (Q1/Q2 against Q3/Q4), so a pooled median falls in a gap between
// modes, where it is set by the extreme samples of two classes, and with
// two clients a class's own latencies split by whether the other client
// overlaps; averaging the class medians keeps the figure steady. A higher
// percentile lies inside the slow mode and is pooled.
func classMedianMs(lat map[string][]float64, fail map[string]int, windowMs float64) float64 {
	classes := make(map[string]bool)
	for c := range lat {
		classes[c] = true
	}
	for c := range fail {
		classes[c] = true
	}
	if len(classes) == 0 {
		return 0
	}
	var logSum float64
	for c := range classes {
		logSum += math.Log(percentileMs(lat[c], fail[c], windowMs, 0.5))
	}
	return math.Exp(logSum / float64(len(classes)))
}

// pooledPercentileMs is the q-quantile over every class's latencies.
func pooledPercentileMs(lat map[string][]float64, fail map[string]int, windowMs float64, q float64) float64 {
	var all []float64
	failed := 0
	for _, xs := range lat {
		all = append(all, xs...)
	}
	for _, n := range fail {
		failed += n
	}
	return percentileMs(all, failed, windowMs, q)
}

// setupTimes are the phases of one set-up, in seconds.
type setupTimes struct{ xmark, fragment, deploy, warm float64 }

func (t setupTimes) total() float64 { return t.xmark + t.fragment + t.deploy + t.warm }

func medianSetup(ts []setupTimes) (setupTimes, float64) {
	pick := func(f func(setupTimes) float64) float64 {
		xs := make([]float64, len(ts))
		for i, t := range ts {
			xs[i] = f(t)
		}
		return median(xs)
	}
	return setupTimes{
			xmark:    pick(func(t setupTimes) float64 { return t.xmark }),
			fragment: pick(func(t setupTimes) float64 { return t.fragment }),
			deploy:   pick(func(t setupTimes) float64 { return t.deploy }),
			warm:     pick(func(t setupTimes) float64 { return t.warm }),
		},
		pick(setupTimes.total)
}

// setupCluster generates the document, deploys it with paxq.NewCluster
// and warms it up, repeats times; it keeps the last deployment.
func setupCluster(ctx context.Context, w *workload, seed int64, repeats int) (*clusterTarget, *paxq.Document, []queryOut, []setupTimes, error) {
	var times []setupTimes
	var ct *clusterTarget
	var doc *paxq.Document
	var outs []queryOut
	for i := 0; i < repeats; i++ {
		if ct != nil {
			ct.close()
		}
		t0 := time.Now()
		doc = paxq.GenerateXMark(xmarkSites, w.mb, seed)
		t1 := time.Now()
		var err error
		if ct, err = deployCluster(doc); err != nil {
			return nil, nil, nil, nil, err
		}
		t2 := time.Now()
		if outs, err = warmUp(ctx, ct, w.warm(seed)); err != nil {
			ct.close()
			return nil, nil, nil, nil, err
		}
		t3 := time.Now()
		// NewCluster cuts and deploys in one call; its time is deploy time.
		times = append(times, setupTimes{xmark: t1.Sub(t0).Seconds(), deploy: t2.Sub(t1).Seconds(), warm: t3.Sub(t2).Seconds()})
	}
	return ct, doc, outs, times, nil
}

// newEnv builds the oracle side of a deployment and checks its warm-up,
// which leaves the oracle of every warm-up query cached: xmark-hot warms
// up on exactly the queries it checks inline.
func newEnv(w *workload, seed int64, t target, doc *paxq.Document, warm []queryOut, tr *tracer, v *verdict) (*env, error) {
	m, err := newMirror(doc, seed*31+7)
	if err != nil {
		return nil, err
	}
	e := &env{tgt: t, m: m, tr: tr, v: v}
	e.checkWarm(w.warm(seed), warm)
	return e, nil
}

func (w *workload) streams(seed int64, first int, seen *seenSet) []opSource {
	out := make([]opSource, w.clients)
	for c := range out {
		out[c] = w.stream(seed, first+c, seen)
	}
	return out
}

// runWindow runs the workload's measured window on e and its answer checks.
func (e *env) runWindow(ctx context.Context, w *workload, streams []opSource, dur time.Duration) *window {
	var cp func()
	if w.segments > 1 {
		cp = func() { e.checkpoint(ctx) }
	}
	win := e.run(ctx, streams, dur, w.segments, w.check, cp)
	e.checkDeferred(win.s.deferred)
	return win
}

// editProbe is the number of serial edits timed after every window.
const editProbe = 1000

// measure is window followed by the edit probe.
func (e *env) measure(ctx context.Context, w *workload, streams []opSource, dur time.Duration) (win, probe *window) {
	win = e.runWindow(ctx, w, streams, dur)
	return win, e.probeEdits(ctx, editProbe)
}

// heapMB is the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// fragmentSizes lists each fragment's node count and hosting site.
func fragmentSizes(m *mirror) []map[string]int {
	out := make([]map[string]int, m.ft.Len())
	sites := make(map[int]int)
	topo := pax.RoundRobin(m.ft, deploySites)
	for fid, site := range topo.SiteOf {
		sites[int(fid)] = int(site)
	}
	for i := range out {
		out[i] = map[string]int{"fragment": i, "nodes": m.ft.Frag(fragment.FragID(i)).Size(), "site": sites[i]}
	}
	return out
}
