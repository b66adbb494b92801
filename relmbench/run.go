package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/relm"
)

// phase is one measured phase's observations in a workload-neutral form.
// An op is one search request on serve-open and kv-deep and one suite item
// on audit. Latency is per request there and per suite job here; time to
// first match is per request there and per item here.
type phase struct {
	wall                      time.Duration
	sent, ok, refused, failed int
	sloOK                     int
	// windows split the phase; the latency metrics report the median over
	// windows of each window's quantile, so a stretch of time in which the
	// host ran slow moves them less. The search workloads have
	// searchWindows equal stretches of the schedule; audit has one window
	// per round, and its rates are medians over rounds too.
	windows []window
	// itemMS is each audit item's search time, from the program's own
	// trace of it: the search stops at the item's first match, so this is
	// the item's time to first match.
	itemMS                   []float64
	lagsMS                   []float64
	bytes                    int64
	engine                   engine.Stats
	delta                    counters
	heapPeak, goroutinesPeak uint64
	errs                     []string
	searches                 []searchOp
	rounds                   []auditRound
	auditIn                  *auditInputs
	spans                    *spanLog
}

func run(cfg config) (result, string, error) {
	checkAndClose := func(w *world, p *phase) ([]string, error) {
		defer w.close()
		return check(cfg, w, p)
	}

	if !cfg.trace {
		w, setupS, err := setupWorld(cfg)
		if err != nil {
			return result{}, "", err
		}
		p, err := measure(cfg, w, nil)
		if err != nil {
			w.close()
			return result{}, "", err
		}
		bad, err := checkAndClose(w, p)
		if err != nil {
			return result{}, "", err
		}
		res, summary := finish(cfg, p, bad, endToEnd(p, setupS))
		return res, summary, nil
	}

	// Traced run: an untraced phase on one world, with in-program tracing
	// off, then a traced phase on a fresh one at relm-serve's default
	// sampling (so neither sees the other's warm caches); per-layer metrics
	// come from the traced phase, the tracing overhead from both.
	untraced := serveDefaults
	untraced.TraceSampling = -1
	w, err := buildWorld(cfg.workload, untraced, nil, cfg.workDir)
	if err != nil {
		return result{}, "", err
	}
	plain, err := measure(cfg, w, nil)
	if err != nil {
		w.close()
		return result{}, "", err
	}
	bad, err := checkAndClose(w, plain)
	if err != nil {
		return result{}, "", err
	}
	rec := &callRecorder{}
	if w, err = buildWorld(cfg.workload, serveDefaults, rec.wrap, cfg.workDir); err != nil {
		return result{}, "", err
	}
	tr := &spanLog{}
	rec.on.Store(true)
	traced, err := measure(cfg, w, tr)
	rec.on.Store(false)
	if err != nil {
		w.close()
		return result{}, "", err
	}
	calls := indexCalls(rec.take())
	cold, states, err := compileCold(w, queryShapes(cfg.workload, traced), tr)
	if err != nil {
		w.close()
		return result{}, "", err
	}
	bad2, err := checkAndClose(w, traced)
	if err != nil {
		return result{}, "", err
	}
	bad = append(bad, bad2...)
	for _, e := range tr.traceErrs {
		bad = append(bad, "trace lookup: "+e)
	}
	lt := analyze(tr.ops, calls)
	path := filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := writeChrome(path, tr.ops, calls, tr.calls); err != nil {
		return result{}, "", err
	}
	fmt.Fprintf(cfg.log, "relmbench: wrote %s (%d ops, %d layer calls, %d model calls)\n", path, len(tr.ops), len(tr.calls), len(calls.calls))
	m := perLayer(cfg, plain, traced, lt, cold, states)
	// Both phases' failures count: the result covers every op this run sent.
	traced.sent += plain.sent
	traced.failed += plain.failed
	traced.refused += plain.refused
	traced.errs = append(plain.errs, traced.errs...)
	res, summary := finish(cfg, traced, bad, m)
	return res, summary, nil
}

// finish assembles the result and the human-readable summary line that
// precedes it on stdout.
func finish(cfg config, p *phase, bad []string, m map[string]metric) (result, string) {
	if cfg.workload == serveOpen {
		if lag := quantile(p.lagsMS, 0.9); lag > ms(lagBound) {
			bad = append(bad, fmt.Sprintf("invalid run: load generator p90 lag %.3f ms exceeds %v", lag, lagBound))
		}
	}
	for i, e := range append(p.errs, bad...) {
		if i == 10 {
			fmt.Fprintf(cfg.log, "relmbench: ... and %d more\n", len(p.errs)+len(bad)-10)
			break
		}
		fmt.Fprintln(cfg.log, "relmbench:", e)
	}
	res := result{
		Correct:   len(bad) == 0 && p.failed+p.refused == 0,
		Attempted: max(p.sent, 1),
		Failed:    p.failed + p.refused,
		Metrics:   m,
	}
	summary := fmt.Sprintf("relmbench workload=%s seed=%d trace=%v ops_sent=%d succeeded=%d refused=%d failed=%d mismatches=%d loadgen_lag_p90_ms=%.3f",
		cfg.workload, cfg.seed, cfg.trace, p.sent, p.sent-p.failed-p.refused, p.refused, p.failed, len(bad), quantile(p.lagsMS, 0.9))
	return res, summary
}

// setupWorld builds the world cfg.setups times, keeping the last, and
// returns the median build time in seconds.
func setupWorld(cfg config) (*world, float64, error) {
	var wrap lmWrapper
	if cfg.plantRows {
		wrap = skewRows
	}
	var w *world
	var times []float64
	for i := 0; i < max(cfg.setups, 1); i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if w, err = buildWorld(cfg.workload, serveDefaults, wrap, cfg.workDir); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return w, median(times), nil
}

// measure runs one phase of cfg.seconds against w.
func measure(cfg config, w *world, tr *spanLog) (*phase, error) {
	p := &phase{spans: tr}
	var serveIn *serveInputs
	var err error
	switch cfg.workload {
	case serveOpen:
		serveIn, err = makeServeInputs(w.env, cfg.seed, cfg.seconds)
	case audit:
		p.auditIn, err = makeAuditInputs(w, cfg.seed, cfg.auditItems)
	}
	if err != nil {
		return nil, err
	}

	harvested := &harvester{seen: map[string]bool{}, log: tr}
	runtime.GC()
	before := w.snapshot()
	peaks := startPeakSampler()
	start := time.Now()
	switch cfg.workload {
	case serveOpen:
		p.searches, p.lagsMS = runServeOpen(w, serveIn, tr)
	case kvDeep:
		p.searches = runKVDeep(w, makeKVInputs(cfg.seed, cfg.kvIDs), cfg.seconds, tr)
	case audit:
		stopHarvest := harvested.start(w.models[auditModel].Tracer())
		p.rounds, err = runAudit(w, p.auditIn, cfg.seconds, tr)
		stopHarvest()
	}
	p.wall = time.Since(start)
	p.heapPeak, p.goroutinesPeak = peaks.stop()
	p.delta = w.snapshot().sub(before)
	if err != nil {
		return nil, err
	}
	if len(p.searches) > 0 {
		span := time.Duration(cfg.seconds * float64(time.Second))
		p.windows = make([]window, searchWindows)
		for i := range p.searches {
			op := &p.searches[i]
			k := int(op.due.Sub(start) * searchWindows / span)
			p.addSearch(&p.windows[min(max(k, 0), searchWindows-1)], op)
		}
	}
	for _, r := range p.rounds {
		p.addRound(r)
	}
	p.itemMS = harvested.itemMS
	return p, nil
}

// searchWindows is how many stretches a search workload's phase is split
// into: at serveRate each holds about 100 requests, enough for a p90.
const searchWindows = 5

// window is one stretch of a phase: its length (audit rounds only),
// outcomes, matches, and per-op (per-job on audit) times.
type window struct {
	wall          time.Duration
	ok, failed    int
	matches       int64
	ttfmMS, latMS []float64
}

// overWindows returns the median over windows of f.
func (p *phase) overWindows(f func(w *window) float64) float64 {
	vals := make([]float64, 0, len(p.windows))
	for i := range p.windows {
		vals = append(vals, f(&p.windows[i]))
	}
	return median(vals)
}

func (p *phase) addSearch(w *window, op *searchOp) {
	p.sent++
	p.bytes += op.bytes
	switch op.outcome {
	case opRefused:
		p.refused++
		p.errs = append(p.errs, "refused: "+op.errMsg)
		return
	case opFailed:
		p.failed++
		w.failed++
		p.errs = append(p.errs, "failed: "+op.errMsg)
		return
	}
	p.ok++
	w.ok++
	ttfm := op.ttfm()
	if ttfm <= ttfmLimit {
		p.sloOK++
	}
	w.ttfmMS = append(w.ttfmMS, ms(ttfm))
	w.latMS = append(w.latMS, ms(op.latency()))
	w.matches += int64(op.matches)
	p.engine.Add(op.done.Engine)
}

func (p *phase) addRound(r auditRound) {
	w := window{wall: r.end.Sub(r.start)}
	for _, j := range r.jobs {
		bad := j.errItems + j.quarantined
		if j.problem != "" {
			bad = j.items
		}
		p.sent += j.items
		p.ok += j.items - bad
		p.failed += bad
		p.sloOK += j.items - bad
		w.ok += j.items - bad
		w.failed += bad
		w.latMS = append(w.latMS, ms(j.ended.Sub(j.submit)))
		w.matches += j.engine.Emitted
		p.engine.Add(j.engine)
		if bad > 0 {
			p.errs = append(p.errs, fmt.Sprintf("job %s (%s): %d items errored or quarantined", j.id, j.suite, bad))
		}
	}
	p.windows = append(p.windows, w)
}

// harvester polls a model's trace ring while audit jobs run (the ring
// keeps only the newest traces), recording each new item's search time and,
// in a traced phase, its span tree.
type harvester struct {
	seen   map[string]bool
	itemMS []float64
	log    *spanLog
}

func (h *harvester) collect(tr *trace.Tracer) {
	for _, d := range tr.Recent(0) {
		if h.seen[d.ID] {
			continue
		}
		h.seen[d.ID] = true
		if r := d.Root(); r != nil {
			h.itemMS = append(h.itemMS, float64(r.WallEndNS-r.WallStartNS)/1e6)
		}
		h.log.addTrace(d)
	}
}

// start polls tr until the returned stop is called.
func (h *harvester) start(tr *trace.Tracer) (stop func()) {
	stopc, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopc:
				h.collect(tr)
				return
			case <-t.C:
				h.collect(tr)
			}
		}
	}()
	return func() { close(stopc); <-done }
}

// check verifies the phase's outputs (untimed) and returns one line per
// mismatch. Search streams are replayed, one request at a time, on a
// reference server over the same trained models (see refWorld), kv-deep's
// incremental probes as their full-prefix twins.
func check(cfg config, w *world, p *phase) ([]string, error) {
	if cfg.plantMismatch {
		plant(p)
	}
	if cfg.workload == audit {
		return checkAudit(w, p.auditIn, p.rounds)
	}
	ref, err := refWorld(w, cfg.workDir)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	if cfg.workload == serveOpen {
		return checkStreams(ref, p.searches, nil), nil
	}
	bad := checkStreams(ref, p.searches, kvFullPath)
	if p.delta.kv.Hits+p.delta.kv.Misses == 0 {
		// Byte-identical streams cannot show a lost incremental path;
		// an arena that saw no acquires does.
		bad = append(bad, "kv-deep probes never reached the KV arena: the incremental path is inactive")
	}
	return bad, nil
}

// plant corrupts one recorded output so a test can prove the checks fail.
func plant(p *phase) {
	for i := range p.searches {
		if p.searches[i].outcome == opOK {
			p.searches[i].streamHash ^= 1
			return
		}
	}
	for _, r := range p.rounds {
		for _, j := range r.jobs {
			if j.cancelled && len(j.results) > 0 {
				j.results[0].Score++ // results share the round's backing array
				return
			}
		}
	}
}

// queryShapes lists the traced phase's distinct compiles: per model, one
// query per distinct (pattern, tokenization, edits).
func queryShapes(wl string, p *phase) []queryShape {
	seen := map[string]bool{}
	var out []queryShape
	add := func(model string, q relm.SearchQuery, edits int) {
		key := fmt.Sprintf("%s|%s|%d|%d", model, q.Query.Pattern, q.Tokenization, edits)
		if !seen[key] {
			seen[key] = true
			out = append(out, queryShape{model: model, q: q})
		}
	}
	for _, op := range p.searches {
		var req server.SearchRequest
		if err := json.Unmarshal([]byte(op.key), &req); err != nil {
			continue // keys are bodies this benchmark marshaled
		}
		q := relm.SearchQuery{
			Query:      relm.QueryString{Pattern: req.Pattern, Prefix: req.Prefix},
			TopK:       req.TopK,
			RequireEOS: req.RequireEOS,
		}
		if req.Strategy == "random" {
			q.Strategy = relm.RandomSampling
		}
		if req.Tokenization == "all" {
			q.Tokenization = relm.AllTokens
		}
		if req.Edits > 0 {
			q.Preprocessors = []relm.Preprocessor{relm.EditDistance{K: req.Edits}}
		}
		add(req.Model, q, req.Edits)
	}
	if wl == audit && p.spans != nil {
		// Audit items compile inside the jobs; their trace roots name the
		// pattern and prefix, compiled here with default options.
		for _, op := range p.spans.ops {
			if op.data == nil || len(op.data.Spans) == 0 {
				continue
			}
			root := op.data.Spans[0]
			add(auditModel, relm.SearchQuery{Query: relm.QueryString{
				Pattern: root.Attr("pattern"), Prefix: root.Attr("prefix"),
			}}, 0)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].model < out[j].model })
	return out
}

// endToEnd computes the --trace 0 metrics.
func endToEnd(p *phase, setupS float64) map[string]metric {
	ops := float64(max(p.sent, 1))
	q := func(samples func(w *window) []float64, at float64) float64 {
		return p.overWindows(func(w *window) float64 { return quantile(samples(w), at) })
	}
	// audit_wall_s is a round's wall time on audit, the phase's elsewhere.
	auditWall := p.wall.Seconds()
	if len(p.rounds) > 0 {
		auditWall = p.overWindows(func(w *window) float64 { return w.wall.Seconds() })
	}
	// rate is per round (median) on audit and over the whole phase on the
	// search workloads, whose open-loop windows hold binomially varying
	// request counts.
	rate := func(count func(w *window) float64) float64 {
		if len(p.rounds) > 0 {
			return p.overWindows(func(w *window) float64 { return count(w) / w.wall.Seconds() })
		}
		total := 0.0
		for i := range p.windows {
			total += count(&p.windows[i])
		}
		return total / p.wall.Seconds()
	}
	ttfm := func(w *window) []float64 { return w.ttfmMS }
	lat := func(w *window) []float64 { return w.latMS }
	ttfm50, ttfm90 := q(ttfm, 0.5), q(ttfm, 0.9)
	if len(p.rounds) > 0 {
		ttfm50, ttfm90 = quantile(p.itemMS, 0.5), quantile(p.itemMS, 0.9)
	}
	return map[string]metric{
		"setup_s":         {setupS, "s"},
		"ttfm_p50_ms":     {ttfm50, "ms"},
		"ttfm_p90_ms":     {ttfm90, "ms"},
		"latency_p50_ms":  {q(lat, 0.5), "ms"},
		"latency_p90_ms":  {q(lat, 0.9), "ms"},
		"slo_ok_frac":     {ratio(float64(p.sloOK), float64(p.sent)), "ratio"},
		"queries_per_s":   {rate(func(w *window) float64 { return float64(w.ok + w.failed) }), "1/s"},
		"matches_per_s":   {rate(func(w *window) float64 { return float64(w.matches) }), "1/s"},
		"items_per_s":     {rate(func(w *window) float64 { return float64(w.ok) }), "1/s"},
		"audit_wall_s":    {auditWall, "s"},
		"vdev_ms_per_op":  {ms(p.delta.clock) / ops, "ms"},
		"alloc_kb_per_op": {float64(p.delta.rt.allocBytes) / 1024 / ops, "KB"},
		"heap_peak_mb":    {float64(p.heapPeak) / (1 << 20), "MB"},
	}
}

// perLayer computes the --trace 1 metrics from the traced phase, with the
// untraced phase as the overhead baseline.
func perLayer(cfg config, plain, traced *phase, lt layerTimes, cold, states []float64) map[string]metric {
	d := traced.delta
	ops := float64(max(traced.sent, 1))
	spanOps := float64(max(lt.ops, 1))
	// A logit-cache lookup is a hit, a miss, or a wait on another caller's
	// in-flight computation.
	lookups := float64(d.cacheHits + d.cacheMiss + d.flights)
	m := map[string]metric{
		"server.refused":              {float64(traced.refused), "count"},
		"server.failed":               {float64(traced.failed), "count"},
		"server.bytes_per_op":         {float64(traced.bytes) / ops, "B"},
		"server.self_ms_p50":          {median(lt.serverSelfMS), "ms"},
		"loadgen.lag_p90_ms":          {quantile(traced.lagsMS, 0.9), "ms"},
		"relm.plan_hit_ratio":         {ratio(float64(d.planHits), float64(d.planHits+d.planMisses)), "ratio"},
		"relm.plan_compile_ms_per_op": {ms(d.compile) / ops, "ms"},
		"compile.cold_ms_p50":         {median(cold), "ms"},
		"compile.token_states_p50":    {median(states), "count"},
		"engine.nodes_per_op":         {float64(traced.engine.NodesExpanded) / ops, "count"},
		"engine.model_calls_per_op":   {float64(traced.engine.ModelCalls) / ops, "count"},
		"engine.sampler_reject_ratio": {ratio(float64(traced.engine.Rejected), float64(traced.engine.Attempts)), "ratio"},
		"cache.hit_ratio":             {ratio(float64(d.cacheHits), lookups), "ratio"},
		"cache.flight_ratio":          {ratio(float64(d.flights), lookups), "ratio"},
		"device.batches_per_op":       {float64(d.batches) / ops, "count"},
		"device.rows_per_batch":       {ratio(float64(d.sequences), float64(d.batches)), "count"},
		"device.tokens_per_op":        {float64(d.tokens) / ops, "count"},
		"device.utilization":          {ratio(float64(d.busy), float64(d.clock)), "ratio"},
		"batcher.mean_occupancy":      {ratio(float64(d.fusedRows), float64(d.fused)), "count"},
		"batcher.multi_query_ratio":   {ratio(float64(d.multi), float64(d.fused)), "ratio"},
		"batcher.window_flush_ratio":  {ratio(float64(d.flush), float64(d.fused)), "ratio"},
		"batcher.queue_wait_us_p50":   {median(lt.queueWaitUS), "us"},
		"kv.hit_ratio":                {ratio(float64(d.kv.Hits), float64(d.kv.Hits+d.kv.Misses)), "ratio"},
		"kv.demotions_per_op":         {float64(d.kv.Demotions) / ops, "count"},
		"kv.promotions_per_op":        {float64(d.kv.Promotions) / ops, "count"},
		"kv.evictions_per_op":         {float64(d.kv.Evictions) / ops, "count"},
		"kv.resident_mb":              {float64(d.kv.ResidentBytes) / (1 << 20), "MB"},
		"model.calls_per_op":          {float64(lt.modelCalls) / ops, "count"},
		"model.rows_per_call":         {ratio(float64(lt.modelRows), float64(lt.modelCalls)), "count"},
		"model.us_per_row":            {ratio(float64(lt.modelNS)/1e3, float64(lt.modelRows)), "us"},
		"model.busy_frac":             {ratio(float64(lt.modelBusyNS), float64(traced.wall)), "ratio"},
		"trace.self_sum_gap_us_max":   {lt.gapMaxUS, "us"},
		"runtime.gc_cpu_frac":         {ratio(d.rt.gcCPU, d.rt.totalCPU), "ratio"},
		"runtime.goroutines_peak":     {float64(traced.goroutinesPeak), "count"},
	}
	for _, name := range append([]string{selfServer, selfQuery, selfModel}, stageNames...) {
		m["stage."+name+".self_us_per_op"] = metric{lt.selfNS[name] / 1e3 / spanOps, "us"}
	}

	// Tracing overhead: traced over untraced cost, on the metric the
	// workload is judged by. The traced phase runs in-program tracing at
	// relm-serve's default sampling and the untraced one with it off; the
	// traced phase also carries the benchmark's model-call timing (two
	// clock reads and an append per model call) and in-process trace
	// lookups (one per op).
	ttfm50 := func(p *phase) float64 {
		return p.overWindows(func(w *window) float64 { return quantile(w.ttfmMS, 0.5) })
	}
	overhead := ratio(ttfm50(traced), ttfm50(plain))
	if cfg.workload == audit {
		rate := func(w *window) float64 { return float64(w.ok) / w.wall.Seconds() }
		overhead = ratio(plain.overWindows(rate), traced.overWindows(rate))
	}
	m["trace.overhead_ratio"] = metric{overhead, "ratio"}

	var jobsItems, ledgerBytes, retries, quarantined float64
	var resume, verify, report []float64
	for _, r := range traced.rounds {
		for _, j := range r.jobs {
			jobsItems += float64(j.items)
			ledgerBytes += float64(j.ledgerBytes)
			retries += float64(j.retries)
			quarantined += float64(j.quarantined)
			if j.resumeMS > 0 {
				resume = append(resume, j.resumeMS)
			}
			verify = append(verify, j.verifyMS)
			report = append(report, j.reportMS)
		}
	}
	m["jobs.retries"] = metric{retries, "count"}
	m["jobs.quarantined"] = metric{quarantined, "count"}
	m["jobs.ledger_kb_per_item"] = metric{ratio(ledgerBytes/1024, jobsItems), "KB"}
	m["jobs.resume_ms"] = metric{median(resume), "ms"}
	m["jobs.verify_ms"] = metric{median(verify), "ms"}
	m["jobs.report_ms"] = metric{median(report), "ms"}
	return m
}
