package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/relm"
)

// The traced run records the benchmark's own spans around calls into each
// layer's public functions — every search op, relm.Explain, the jobs HTTP
// calls, jobs.VerifyFile and jobs.ReadRun, and (through a model wrapper)
// every model forward — and joins them with the program's own span tree of
// each op, looked up by the trace_id its done event carries.

// stageNames are the program's span names whose self time is reported, in
// the order they print.
var stageNames = []string{
	"plan.compile", "prefix.score", "round", "emit", "kv.acquire", "kv.promote",
	"device.forward", "device.prefill", "device.extend", "device.scoreall",
}

// Self-time owners outside the program's stage names: the client op span
// minus the program's root ("server"), the root's own time ("query"), and
// time inside model calls ("model").
const (
	selfServer = "server"
	selfQuery  = "query"
	selfModel  = "model"
)

// spanLog collects one traced phase's spans. A nil *spanLog records nothing,
// so untraced phases pay a nil check per op.
type spanLog struct {
	mu        sync.Mutex
	ops       []tracedOp
	calls     []layerCall
	traceErrs []string
}

// tracedOp is one op: its client span (zero for audit items, whose op is
// the program's own root span) and the program's span tree.
type tracedOp struct {
	start, end time.Time
	data       *trace.Data
}

// layerCall is a client span around one call into a layer's public API.
type layerCall struct {
	name       string
	start, end time.Time
}

// call runs fn inside a client span named name.
func (l *spanLog) call(name string, fn func() error) error {
	if l == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	l.mu.Lock()
	l.calls = append(l.calls, layerCall{name: name, start: start, end: end})
	l.mu.Unlock()
	return err
}

// searchDone records a finished search op and the program's span tree of
// it, read in process from the model's trace ring: a lookup of a few
// microseconds, so the worker still takes its next request when it is due.
func (l *spanLog) searchDone(w *world, op *searchOp) {
	if l == nil {
		return
	}
	t := tracedOp{start: op.start, end: op.end}
	if id := op.done.TraceID; id != "" {
		for _, name := range w.names {
			if t.data = w.models[name].Tracer().Get(id); t.data != nil {
				break
			}
		}
		if t.data == nil {
			l.mu.Lock()
			l.traceErrs = append(l.traceErrs, fmt.Sprintf("trace %s is in no model's ring", id))
			l.mu.Unlock()
		}
	}
	l.mu.Lock()
	l.ops = append(l.ops, t)
	l.mu.Unlock()
}

// addTrace records a program trace as an op of its own (audit items run
// inside jobs, with no client span).
func (l *spanLog) addTrace(d *trace.Data) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ops = append(l.ops, tracedOp{data: d})
	l.mu.Unlock()
}

// ivl is one interval in an op's span tree, in absolute wall nanoseconds.
type ivl struct {
	start, end int64
	depth      int
	name       string
}

// opSpans flattens one op into intervals: the client span (depth 0, owner
// "server"), the program's spans by tree depth beneath it, and model calls
// one level below the device span they ran under. Every interval is clipped
// to the op's outer span. It also returns each fused dispatch's queue wait.
func opSpans(op tracedOp, calls callIndex) (spans []ivl, queueWaitsUS []float64) {
	if op.data == nil || len(op.data.Spans) == 0 {
		if op.start.IsZero() {
			return nil, nil
		}
		return []ivl{{op.start.UnixNano(), op.end.UnixNano(), 0, selfServer}}, nil
	}
	began := op.data.Began.UnixNano()
	root := op.data.Spans[0]
	lo, hi := began+root.WallStartNS, began+root.WallEndNS
	base := 0
	if !op.start.IsZero() {
		lo, hi = op.start.UnixNano(), op.end.UnixNano()
		spans = append(spans, ivl{lo, hi, 0, selfServer})
		base = 1
	}
	clip := func(s, e int64) (int64, int64) { return max(s, lo), min(e, hi) }
	depth := make(map[trace.SpanID]int, len(op.data.Spans))
	rootEnd := root.WallEndNS
	for _, sp := range op.data.Spans {
		d := base
		if sp.Parent != 0 {
			d = depth[sp.Parent] + 1
		}
		depth[sp.ID] = d
		end := sp.WallEndNS
		if end == 0 { // left open when the trace finished
			end = rootEnd
		}
		s, e := clip(began+sp.WallStartNS, began+end)
		if e <= s {
			continue
		}
		name := sp.Name
		if sp.Parent == 0 {
			name = selfQuery
		}
		spans = append(spans, ivl{s, e, d, name})
		if !strings.HasPrefix(sp.Name, "device.") {
			continue
		}
		if sp.Attr("fused") == "true" {
			if w, err := strconv.ParseFloat(sp.Attr("queue_wait_us"), 64); err == nil {
				queueWaitsUS = append(queueWaitsUS, w)
			}
		}
		for _, c := range calls.overlapping(s, e) {
			spans = append(spans, ivl{max(c.start.UnixNano(), s), min(c.end.UnixNano(), e), d + 1, selfModel})
		}
	}
	return spans, queueWaitsUS
}

// callIndex is the traced phase's model calls sorted by start, for finding
// the calls that overlap a dispatch span.
type callIndex struct {
	calls   []modelCall
	maxCall int64 // longest call, ns: bounds how far back an overlap can start
}

func indexCalls(calls []modelCall) callIndex {
	sort.Slice(calls, func(i, j int) bool { return calls[i].start.Before(calls[j].start) })
	ix := callIndex{calls: calls}
	for _, c := range calls {
		ix.maxCall = max(ix.maxCall, c.end.Sub(c.start).Nanoseconds())
	}
	return ix
}

// overlapping returns the calls that overlap [s, e) (wall ns).
func (ix callIndex) overlapping(s, e int64) []modelCall {
	var out []modelCall
	i := sort.Search(len(ix.calls), func(i int) bool { return ix.calls[i].start.UnixNano() >= s-ix.maxCall })
	for ; i < len(ix.calls) && ix.calls[i].start.UnixNano() < e; i++ {
		if ix.calls[i].end.UnixNano() > s {
			out = append(out, ix.calls[i])
		}
	}
	return out
}

// selfTimes attributes every instant of the outermost interval to the
// deepest interval covering it (splitting ties evenly), so a span's self
// time is its duration minus the part its children cover, and the self
// times of one op add up to its outer span exactly.
func selfTimes(spans []ivl) map[string]float64 {
	type event struct {
		t    int64
		i    int
		open bool
	}
	evs := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		evs = append(evs, event{s.start, i, true}, event{s.end, i, false})
	}
	sort.Slice(evs, func(a, b int) bool { return evs[a].t < evs[b].t })
	self := map[string]float64{}
	var active, deepest []int
	var prev int64
	for _, ev := range evs {
		if seg := ev.t - prev; seg > 0 && len(active) > 0 {
			deepest = deepest[:0]
			best := -1
			for _, i := range active {
				switch d := spans[i].depth; {
				case d > best:
					best, deepest = d, append(deepest[:0], i)
				case d == best:
					deepest = append(deepest, i)
				}
			}
			share := float64(seg) / float64(len(deepest))
			for _, i := range deepest {
				self[spans[i].name] += share
			}
		}
		prev = ev.t
		if ev.open {
			active = append(active, ev.i)
			continue
		}
		for k, i := range active {
			if i == ev.i {
				active = append(active[:k], active[k+1:]...)
				break
			}
		}
	}
	return self
}

// layerTimes is the traced phase's timing split.
type layerTimes struct {
	ops          int
	selfNS       map[string]float64 // summed over ops
	serverSelfMS []float64          // per op: client span minus program root
	gapMaxUS     float64            // worst |sum of self times - outer span| over ops
	queueWaitUS  []float64
	modelCalls   int
	modelRows    int
	modelNS      int64 // summed call durations
	modelBusyNS  int64 // union of call intervals
}

func analyze(ops []tracedOp, calls callIndex) layerTimes {
	lt := layerTimes{selfNS: map[string]float64{}, modelCalls: len(calls.calls)}
	var busyEnd int64
	for _, c := range calls.calls {
		s, e := c.start.UnixNano(), c.end.UnixNano()
		lt.modelRows += c.rows
		lt.modelNS += e - s
		if e > busyEnd {
			lt.modelBusyNS += e - max(s, busyEnd)
			busyEnd = e
		}
	}
	for _, op := range ops {
		spans, waits := opSpans(op, calls)
		if len(spans) == 0 {
			continue
		}
		lt.ops++
		lt.queueWaitUS = append(lt.queueWaitUS, waits...)
		self := selfTimes(spans)
		total := 0.0
		for name, ns := range self {
			lt.selfNS[name] += ns
			total += ns
		}
		outer := float64(spans[0].end - spans[0].start)
		if gap := abs(total-outer) / 1e3; gap > lt.gapMaxUS {
			lt.gapMaxUS = gap
		}
		if !op.start.IsZero() && op.data != nil && len(op.data.Spans) > 0 {
			root := op.data.Spans[0]
			lt.serverSelfMS = append(lt.serverSelfMS, ms(op.end.Sub(op.start))-float64(root.WallEndNS-root.WallStartNS)/1e6)
		}
	}
	return lt
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compileCold times relm.Explain once per distinct query shape, each on a
// fresh model so the plan cache is cold, and returns the times (ms) and the
// token-automaton sizes.
func compileCold(w *world, shapes []queryShape, tr *spanLog) (times, states []float64, err error) {
	for _, s := range shapes {
		m := relm.NewModel(w.raw[s.model], w.tok, relm.ModelOptions{TraceSampling: -1, KVBudgetBytes: -1})
		var plan *relm.Plan
		start := time.Now()
		err := tr.call("relm.Explain", func() error {
			var err error
			plan, err = relm.Explain(m, s.q)
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("explain %q: %w", s.q.Query.Pattern, err)
		}
		times = append(times, ms(time.Since(start)))
		states = append(states, float64(plan.TokenStates))
	}
	return times, states, nil
}

// queryShape is one distinct compile: the model it runs on and the query
// fields that key its plan.
type queryShape struct {
	model string
	q     relm.SearchQuery
}

// writeChrome writes every op (client span, program spans, model calls)
// and layer call as one Chrome trace-event file.
func writeChrome(path string, ops []tracedOp, calls callIndex, layer []layerCall) error {
	var out []*trace.Data
	for n, op := range ops {
		d := &trace.Data{ID: fmt.Sprintf("op-%d", n)}
		shift := trace.SpanID(0)
		switch {
		case !op.start.IsZero():
			d.Began = op.start
			d.Spans = append(d.Spans, trace.Span{ID: 1, Name: "client.op", WallEndNS: op.end.Sub(op.start).Nanoseconds()})
			shift = 1
		case op.data != nil:
			d.Began = op.data.Began
		default:
			continue
		}
		originNS := d.Began.UnixNano()
		if op.data != nil {
			// Program span ids are their index + 1, so shifting keeps them
			// unique; model spans take ids after the last program span.
			off := op.data.Began.UnixNano() - originNS
			var model []trace.Span
			for _, sp := range op.data.Spans {
				sp.ID += shift
				if sp.Parent != 0 || shift != 0 {
					sp.Parent += shift
				}
				sp.WallStartNS += off
				if sp.WallEndNS != 0 {
					sp.WallEndNS += off
				}
				d.Spans = append(d.Spans, sp)
				if !strings.HasPrefix(sp.Name, "device.") {
					continue
				}
				for _, c := range calls.overlapping(originNS+sp.WallStartNS, originNS+sp.WallEndNS) {
					model = append(model, trace.Span{
						Parent: sp.ID, Name: selfModel,
						WallStartNS: c.start.UnixNano() - originNS, WallEndNS: c.end.UnixNano() - originNS,
						Attrs: []trace.Attr{{Key: "rows", Val: strconv.Itoa(c.rows)}},
					})
				}
			}
			for _, sp := range model {
				sp.ID = trace.SpanID(len(d.Spans) + 1)
				d.Spans = append(d.Spans, sp)
			}
		}
		out = append(out, d)
	}
	for n, c := range layer {
		out = append(out, &trace.Data{
			ID: fmt.Sprintf("call-%d", n), Began: c.start,
			Spans: []trace.Span{{ID: 1, Name: c.name, WallEndNS: c.end.Sub(c.start).Nanoseconds()}},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := trace.WriteChrome(f, out)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
