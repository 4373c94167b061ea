package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paxq/internal/dist"
	"paxq/internal/pax"
)

// stages are the site-call kinds the per-layer metrics break out, named
// after the request type that carries them.
var stages = []string{"qual", "sel", "combined", "ans", "edit"}

func stageOf(req any) string {
	switch req.(type) {
	case *pax.QualStageReq:
		return "qual"
	case *pax.SelStageReq:
		return "sel"
	case *pax.CombinedStageReq:
		return "combined"
	case *pax.AnsStageReq:
		return "ans"
	case *pax.EditReq:
		return "edit"
	case *pax.BatchStageReq:
		return "batch"
	}
	return fmt.Sprintf("%T", req)
}

// layerEpsilon bounds, per query, |coord.self + critical path + launch
// wait - client wall|. PaX stages are sequential round trips, so the two
// sides differ only if one stage's calls overlap the next stage's.
const layerEpsilon = 100 * time.Microsecond

type traceKey struct{}

func withTrace(ctx context.Context, ot *opTrace) context.Context {
	return context.WithValue(ctx, traceKey{}, ot)
}

// callRec is one site call as seen from the coordinator's side of the
// transport.
type callRec struct {
	stage      string
	site       dist.SiteID
	start, end time.Time
	cost       dist.CallCost
	failed     bool
}

// opTrace collects the site calls of one query or edit.
type opTrace struct {
	id    int64
	kind  string
	mu    sync.Mutex
	calls []callRec
}

// tracingTransport times every call the engine makes through it and
// files the call under the operation found in the call's context.
type tracingTransport struct{ dist.Transport }

func (t tracingTransport) Call(ctx context.Context, to dist.SiteID, req any) (any, dist.CallCost, error) {
	ot, _ := ctx.Value(traceKey{}).(*opTrace)
	if ot == nil {
		return t.Transport.Call(ctx, to, req)
	}
	start := time.Now()
	resp, cost, err := t.Transport.Call(ctx, to, req)
	end := time.Now()
	ot.mu.Lock()
	ot.calls = append(ot.calls, callRec{stage: stageOf(req), site: to, start: start, end: end, cost: cost, failed: err != nil})
	ot.mu.Unlock()
	return resp, cost, err
}

// span is one timed interval of the trace. All spans of one operation
// share Trace; Parent is 0 for the operation's own span.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Site   int    `json:"site,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Failed bool   `json:"failed,omitempty"`
}

// maxSpans caps the spans kept in memory; aggregates count every call.
const maxSpans = 200000

type stageAgg struct {
	callMs, overheadMs, computeMs []float64
	bytes                         int64
}

// tracer turns finished operations into spans and per-layer aggregates.
type tracer struct {
	origin time.Time
	ids    atomic.Int64

	mu          sync.Mutex
	spans       []span
	stages      map[string]*stageAgg
	failedCalls int
	queries     int
	queryCalls  int
	selfMs      []float64
	waitMs      []float64
	layerErrMax time.Duration
	distinct    map[string]bool
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), stages: make(map[string]*stageAgg), distinct: make(map[string]bool)}
}

func (t *tracer) begin(kind string) *opTrace {
	return &opTrace{id: t.ids.Add(1), kind: kind}
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// record files ot's spans and per-stage aggregates and returns its calls.
// The caller holds t.mu.
func (t *tracer) record(ot *opTrace, start, end time.Time, failed bool) []callRec {
	ot.mu.Lock()
	calls := append([]callRec(nil), ot.calls...)
	ot.mu.Unlock()
	keep := len(t.spans)+1+2*len(calls) <= maxSpans
	if keep {
		t.spans = append(t.spans, span{Trace: ot.id, ID: t.ids.Add(1), Name: ot.kind, Start: t.ns(start), End: t.ns(end), Failed: failed})
	}
	root := int64(0)
	if keep {
		root = t.spans[len(t.spans)-1].ID
	}
	for _, c := range calls {
		rtt := c.end.Sub(c.start)
		agg := t.stages[c.stage]
		if agg == nil {
			agg = &stageAgg{}
			t.stages[c.stage] = agg
		}
		if c.failed {
			t.failedCalls++
		} else {
			agg.callMs = append(agg.callMs, ms(rtt))
			agg.overheadMs = append(agg.overheadMs, ms(rtt-c.cost.Compute))
			agg.computeMs = append(agg.computeMs, ms(c.cost.Compute))
		}
		agg.bytes += c.cost.Sent + c.cost.Recv
		if !keep {
			continue
		}
		call := span{Trace: ot.id, ID: t.ids.Add(1), Parent: root, Name: "dist.call." + c.stage,
			Start: t.ns(c.start), End: t.ns(c.end), Site: int(c.site), Bytes: c.cost.Sent + c.cost.Recv, Failed: c.failed}
		// Site compute sits inside the round trip; the transport reports
		// its length, not its position, so it is centred in the call.
		siteStart := c.start.Add((rtt - c.cost.Compute) / 2)
		t.spans = append(t.spans, call, span{Trace: ot.id, ID: t.ids.Add(1), Parent: call.ID, Name: "site." + c.stage,
			Start: t.ns(siteStart), End: t.ns(siteStart.Add(c.cost.Compute)), Site: int(c.site)})
	}
	return calls
}

func (t *tracer) endFailed(ot *opTrace, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.record(ot, start, end, true)
}

// endQuery records a finished query and checks its layer sums: the
// per-call bytes must add up to the query's ledger exactly, the calls must
// group into as many stages as the engine ran, and coordinator self time
// (wall outside every stage) plus the stages' critical paths and launch
// waits must equal the client's wall time within layerEpsilon.
func (t *tracer) endQuery(ot *opTrace, query string, start, end time.Time, out queryOut, v *verdict) {
	t.mu.Lock()
	defer t.mu.Unlock()
	calls := t.record(ot, start, end, false)
	checkBytes(ot, calls, out.sent+out.recv, v)
	stages := stageSpans(calls)
	if len(stages) != out.stages {
		v.fail("layer sum: query %d: calls group into %d stages, the engine ran %d", ot.id, len(stages), out.stages)
	}
	var critical, wait time.Duration
	for _, st := range stages {
		critical += st.lastRTT
		wait += st.end.Sub(st.start) - st.lastRTT
	}
	wall := end.Sub(start)
	self := wall - union(stages)
	layerErr := self + critical + wait - wall
	if layerErr < 0 {
		layerErr = -layerErr
	}
	if layerErr > t.layerErrMax {
		t.layerErrMax = layerErr
	}
	if layerErr > layerEpsilon {
		v.fail("layer sum: query %d self %v + critical path %v + launch wait %v differs from wall %v by %v > %v",
			ot.id, self, critical, wait, wall, layerErr, layerEpsilon)
	}
	t.queries++
	t.queryCalls += len(calls)
	t.selfMs = append(t.selfMs, ms(self))
	t.waitMs = append(t.waitMs, ms(wait))
	t.distinct[query] = true
}

func (t *tracer) endEdit(ot *opTrace, start, end time.Time, ledgerBytes int64, v *verdict) {
	t.mu.Lock()
	defer t.mu.Unlock()
	checkBytes(ot, t.record(ot, start, end, false), ledgerBytes, v)
}

func checkBytes(ot *opTrace, calls []callRec, ledgerBytes int64, v *verdict) {
	var sum int64
	for _, c := range calls {
		sum += c.cost.Sent + c.cost.Recv
	}
	if sum != ledgerBytes {
		v.fail("layer sum: %s %d calls carry %d bytes, its ledger %d", ot.kind, ot.id, sum, ledgerBytes)
	}
}

// union is the length of the union of the stages' intervals.
func union(stages []stageSpan) time.Duration {
	var total time.Duration
	var curStart, curEnd time.Time
	for i, st := range stages { // in start order
		if i == 0 || st.start.After(curEnd) {
			total += curEnd.Sub(curStart)
			curStart, curEnd = st.start, st.end
		} else if st.end.After(curEnd) {
			curEnd = st.end
		}
	}
	return total + curEnd.Sub(curStart)
}

// stageSpan is one stage of an operation as its calls show it: it runs
// from the stage's first call start to its last call end, the time the
// coordinator waited on the stage; lastRTT is the round trip of the call
// that finished last, the stage's critical path. The rest of the stage is
// how late that call started: the coordinator's own scheduling delay in
// fanning the stage out, which under load can leave the stage with no
// call in flight.
type stageSpan struct {
	start, end time.Time
	lastRTT    time.Duration
}

// stageSpans groups calls into stages: the runs of calls of one stage
// kind, in start order.
func stageSpans(calls []callRec) []stageSpan {
	cs := append([]callRec(nil), calls...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].start.Before(cs[j].start) })
	var out []stageSpan
	for i := 0; i < len(cs); {
		last := cs[i]
		j := i + 1
		for ; j < len(cs) && cs[j].stage == cs[i].stage; j++ {
			if cs[j].end.After(last.end) {
				last = cs[j]
			}
		}
		out = append(out, stageSpan{start: cs[i].start, end: last.end, lastRTT: last.end.Sub(last.start)})
		i = j
	}
	return out
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// stageMetrics reports the per-stage call metrics.
func (t *tracer) stageMetrics(out map[string]metric) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range stages {
		agg := t.stages[st]
		if agg == nil {
			agg = &stageAgg{}
		}
		out["dist.call_ms."+st] = metric{median(agg.callMs), "ms"}
		out["dist.overhead_ms."+st] = metric{median(agg.overheadMs), "ms"}
		out["dist.bytes_per_call."+st] = metric{ratio(float64(agg.bytes), float64(len(agg.callMs))), "bytes"}
		out["site.compute_ms."+st] = metric{median(agg.computeMs), "ms"}
	}
	out["dist.calls_per_query"] = metric{ratio(float64(t.queryCalls), float64(t.queries)), "count"}
	out["dist.failed_calls"] = metric{float64(t.failedCalls), "count"}
	out["coord.self_ms"] = metric{median(t.selfMs), "ms"}
	out["dist.launch_wait_ms"] = metric{median(t.waitMs), "ms"}
	out["check.layer_sum_err_max_ms"] = metric{ms(t.layerErrMax), "ms"}
}

// planMicros times xpath.Compile plus pax.AnalyzeRelevance directly for
// every distinct query the tracer saw, and returns the total in µs.
func (t *tracer) planMicros(plan func(q string) (time.Duration, error)) (float64, error) {
	t.mu.Lock()
	qs := make([]string, 0, len(t.distinct))
	for q := range t.distinct {
		qs = append(qs, q)
	}
	t.mu.Unlock()
	var total time.Duration
	for _, q := range qs {
		d, err := plan(q)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return float64(total) / 1e3, nil
}
