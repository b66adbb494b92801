package device

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/model"
)

// Continuous cross-query batching (DESIGN.md decision 12). A loaded server
// runs many queries against one device, but each query builds its own
// ScoreBatch/Prefill/ExtendBatch waves — at high concurrency the device
// executes many half-full forwards, each paying the full dispatch overhead.
// The Batcher is a fusion queue between the engines and the device core:
// every view's scoring call becomes an asynchronous request, a scheduler
// collects requests from all in-flight queries inside a short admission
// window, and packs their rows into shared forwards up to the device batch
// cap. One fused batch pays one dispatch for rows from many queries.
//
// Fusion preserves byte-identical result streams by construction: fused and
// unfused calls alike execute through one routine (core.run, which scores
// every row in segment.exec), so each request's rows are computed by exactly
// the same model calls on exactly the same inputs whether or not the
// scheduler admits it — the scheduler changes only when and with whom a row
// shares a dispatch, never what is computed. The device already
// relies on this row-independence to shard chunks across the worker pool;
// the batcher extends the same invariant across queries. Per-query cache and
// KV attribution survive because every request scores through the view that
// submitted it.
//
// Scheduling policy:
//
//   - Admission window: the first pending request opens a time window
//     (Config.Window); the queue flushes when the window expires, when
//     pending rows reach the device batch cap (size watermark), or when an
//     urgent request arrives.
//   - Readiness: the window is only worth holding while some live session
//     (Device.Engage) could still add rows. Once every engaged session has
//     a request pending, the queue flushes at once — a lone query never
//     waits out a window nobody can join.
//   - Deadline awareness: a request whose QoS deadline is within
//     Config.UrgentSlack preempts the window and is packed first (earliest
//     deadline first), so a query near its deadline_ms budget jumps the
//     queue instead of waiting behind bulk work.
//   - Fair share: rows are drawn from per-query FIFO queues by
//     deficit-style selection — the query with the fewest rows served so
//     far goes first, at most Config.Quantum rows per pick — so a flood of
//     cheap queries cannot starve an expensive one, and a query joining the
//     contention inherits the current service floor rather than a blank
//     credit balance.
type Batcher struct {
	cfg  BatcherConfig
	core *core

	mu     sync.Mutex
	queues map[string]*queryQueue
	active []*queryQueue // queues with pending requests, insertion order
	rows   int           // pending rows across all queues
	closed bool
	// waiting maps each engaged session with a request not yet fully
	// selected to its count of such requests; len(waiting) is the number
	// of live sessions that cannot add rows until the next flush.
	waiting map[*session]int

	// counters (guarded by mu)
	fusedBatches    int64
	requests        int64
	rowsFused       int64
	multiQuery      int64
	windowFlushes   int64
	sizeFlushes     int64
	urgentFlushes   int64
	drainFlushes    int64
	readyFlushes    int64
	peakQueueDepth  int
	fairnessDeficit int64

	// Circuit breaker (guarded by mu). Consecutive failed fused dispatches —
	// a row panicking, or an injected batcher fault — trip the breaker; while
	// open, enqueue refuses admission and each caller runs its own request as
	// an unfused batch on the same executor, which still computes
	// byte-identical results. After the cooldown one probe request is
	// admitted (half-open): success closes the breaker, failure re-trips it.
	breakerFails int
	breakerOpen  bool
	breakerUntil time.Time
	breakerTrips int64
	breakerShed  int64

	wake      chan struct{}
	closeCh   chan struct{}
	exited    chan struct{}
	closeOnce sync.Once
}

// BatcherConfig tunes the fusion scheduler. Zero values take the defaults.
type BatcherConfig struct {
	// Window is the admission window: how long the scheduler holds the first
	// pending request hoping more queries contribute rows before it flushes
	// a partial batch (default 200µs). Larger windows fuse better under low
	// concurrency at the price of per-round latency; the size watermark and
	// urgent requests always preempt it, and so does readiness: the window
	// applies only while some engaged session (Device.Engage) has no request
	// pending. On an idle runtime a timer under 1ms fires after about 1ms
	// (the netpoller's wait granularity), so a short window costs about 1ms
	// per flush it paces.
	Window time.Duration
	// UrgentSlack is the deadline proximity that makes a request urgent: a
	// QoS deadline within this much of now preempts the admission window and
	// jumps the fairness order (default 250ms).
	UrgentSlack time.Duration
	// Quantum caps rows taken from one query per fairness pick (default 8),
	// bounding how far one query's large request can push others out of a
	// single fused batch. Urgent picks ignore the quantum.
	Quantum int
	// BreakerThreshold is the number of consecutive failed fused dispatches
	// that trips the circuit breaker (default 3). While open the batcher sheds
	// admissions and each caller runs its own request as an unfused batch.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds before admitting a
	// half-open probe (default 250ms).
	BreakerCooldown time.Duration
}

func (c *BatcherConfig) defaults() {
	if c.Window <= 0 {
		c.Window = 200 * time.Microsecond
	}
	if c.UrgentSlack <= 0 {
		c.UrgentSlack = 250 * time.Millisecond
	}
	if c.Quantum <= 0 {
		c.Quantum = 8
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 250 * time.Millisecond
	}
}

// BatcherStats snapshots the fusion counters.
type BatcherStats struct {
	// FusedBatches counts dispatched fused batches; Requests and Rows count
	// what went into them. MeanOccupancy is Rows/FusedBatches — the packing
	// win the batcher exists for.
	FusedBatches  int64
	Requests      int64
	Rows          int64
	MeanOccupancy float64
	// MultiQueryBatches counts fused batches that mixed rows from more than
	// one query — the cross-query fusion the per-query path can never do.
	MultiQueryBatches int64
	// QueueDepth is the number of rows pending right now; PeakQueueDepth is
	// the high-water mark.
	QueueDepth     int
	PeakQueueDepth int
	// Flush-reason counters: window expiry, size watermark, deadline
	// preemption, close-time drain, and readiness (every engaged session
	// had a request pending, so no one was left to wait for).
	WindowFlushes int64
	SizeFlushes   int64
	UrgentFlushes int64
	DrainFlushes  int64
	ReadyFlushes  int64
	// FairnessDeficit is the served-row spread (max-min) across the queries
	// that were still contending after the last selection — 0 means perfectly
	// even service.
	FairnessDeficit int64
	// BreakerState is "closed" (fusing normally, including half-open probing)
	// or "open" (shedding: callers run their requests as unfused batches).
	// BreakerTrips counts closed→open transitions; BreakerShed counts
	// requests refused while open.
	BreakerState string
	BreakerTrips int64
	BreakerShed  int64
}

// queryQueue is one query's FIFO of pending requests plus its fair-share
// account.
type queryQueue struct {
	key    string
	served int64
	reqs   []*request
}

type reqKind int

const (
	reqForward reqKind = iota
	reqPrefill
	reqExtend
	reqScoreAll
)

// request is one view's scoring call, split into rows the scheduler may
// spread across several fused batches — or, when no scheduler admits it,
// into the MaxBatch-sized unfused batches its caller runs. A submitting
// goroutine blocks on done until every row has executed.
type request struct {
	kind reqKind
	lm   model.LanguageModel
	qos  QoS
	key  string
	sess *session // the submitting view's live session, nil if unengaged
	enq  time.Time

	ctxs   [][]model.Token     // forward / prefill / scoreAll inputs
	states []model.DecodeState // extend inputs
	tokens []model.Token       // extend inputs

	rows      [][]float64         // forward / prefill / extend outputs
	outStates []model.DecodeState // prefill / extend outputs
	allRows   [][][]float64       // scoreAll outputs

	next      int // rows handed to fused batches so far
	remaining int // rows not yet executed
	done      chan struct{}

	// trace, when non-nil, is the scheduler-side record of a traced view's
	// ride through the fusion queue. The scheduler goroutine writes it
	// before close(done); the submitting goroutine reads it after <-done —
	// the channel close is the publication barrier.
	trace *reqTrace

	panicMu  sync.Mutex
	panicked bool
	panicVal any
}

// reqTrace records what the scheduler observed for one traced request:
// queue wait at first selection, the fusion-batch ids its rows rode in,
// the highest cross-query occupancy of those batches, and the virtual-
// clock interval the carrying dispatch(es) charged.
type reqTrace struct {
	waitUS    int64
	batches   []int64
	occupancy int
	vstart    time.Duration
	vend      time.Duration
	hasV      bool
}

func (r *request) rowCount() int {
	if r.kind == reqExtend {
		return len(r.states)
	}
	return len(r.ctxs)
}

// tokensAt prices row i for the latency model: full context for
// forward/prefill/scoreAll rows, one token for an extend row.
func (r *request) tokensAt(i int) int {
	if r.kind == reqExtend {
		return 1
	}
	return len(r.ctxs[i])
}

func (r *request) urgent(now time.Time, slack time.Duration) bool {
	return !r.qos.Deadline.IsZero() && r.qos.Deadline.Sub(now) <= slack
}

func (r *request) recordPanic(p any) {
	r.panicMu.Lock()
	if !r.panicked {
		r.panicked = true
		r.panicVal = p
	}
	r.panicMu.Unlock()
}

// StartBatcher attaches a fusion scheduler to the device (all views of the
// device route through it) and starts its scheduler goroutine. Close
// detaches and stops it. One batcher serves one device.
func StartBatcher(d *Device, cfg BatcherConfig) *Batcher {
	cfg.defaults()
	b := &Batcher{
		cfg:     cfg,
		core:    d.c,
		queues:  map[string]*queryQueue{},
		waiting: map[*session]int{},
		wake:    make(chan struct{}, 1),
		closeCh: make(chan struct{}),
		exited:  make(chan struct{}),
	}
	d.c.batcher.Store(b)
	go b.run()
	return b
}

// Close detaches the batcher from its device, drains every pending request,
// and stops the scheduler goroutine. A caller arriving after Close runs its
// request as an unfused batch, so shutdown never strands a query.
// Safe to call multiple times and concurrently with submissions.
func (b *Batcher) Close() {
	b.core.batcher.CompareAndSwap(b, nil)
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.closeOnce.Do(func() { close(b.closeCh) })
	<-b.exited
}

// Stats snapshots the fusion counters.
func (b *Batcher) Stats() BatcherStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BatcherStats{
		FusedBatches:      b.fusedBatches,
		Requests:          b.requests,
		Rows:              b.rowsFused,
		MultiQueryBatches: b.multiQuery,
		QueueDepth:        b.rows,
		PeakQueueDepth:    b.peakQueueDepth,
		WindowFlushes:     b.windowFlushes,
		SizeFlushes:       b.sizeFlushes,
		UrgentFlushes:     b.urgentFlushes,
		DrainFlushes:      b.drainFlushes,
		ReadyFlushes:      b.readyFlushes,
		FairnessDeficit:   b.fairnessDeficit,
		BreakerState:      "closed",
		BreakerTrips:      b.breakerTrips,
		BreakerShed:       b.breakerShed,
	}
	if b.breakerOpen {
		s.BreakerState = "open"
	}
	if s.FusedBatches > 0 {
		s.MeanOccupancy = float64(s.Rows) / float64(s.FusedBatches)
	}
	return s
}

// submit enqueues the view's request and blocks until every row has
// executed. It reports false without executing anything when the batcher is
// closed or its breaker sheds — the caller then runs the request as an
// unfused batch (Device.dispatch), which also re-raises any row panic
// recorded on the request.
func (b *Batcher) submit(d *Device, r *request) bool {
	n := r.rowCount()
	if n == 0 {
		return true
	}
	r.qos = d.qos
	r.sess = d.sess
	r.enq = time.Now()
	r.remaining = n
	r.done = make(chan struct{})
	r.key = r.qos.Query
	if r.key == "" {
		// No explicit identity: each view (one per session/query) is its own
		// fairness principal.
		r.key = fmt.Sprintf("view:%p", d)
	}
	if !b.enqueue(r) {
		return false
	}
	b.kick()
	<-r.done
	return true
}

// kick wakes the scheduler to re-evaluate its flush triggers.
func (b *Batcher) kick() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// enqueue adds the request to its query's FIFO. Split from submit so tests
// can drive the selection logic deterministically.
func (b *Batcher) enqueue(r *request) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	if b.breakerOpen {
		if time.Now().Before(b.breakerUntil) {
			b.breakerShed++
			return false
		}
		// Cooldown elapsed: admit this request as the half-open probe. One
		// more failed dispatch re-trips immediately; a success resets.
		b.breakerOpen = false
		b.breakerFails = b.cfg.BreakerThreshold - 1
	}
	q := b.queues[r.key]
	if q == nil {
		q = &queryQueue{key: r.key}
		b.queues[r.key] = q
	}
	if len(q.reqs) == 0 {
		// Joining the contention: inherit the current service floor so an
		// idle query neither monopolizes the device with banked credit nor
		// starts in debt against long-running queries.
		if minServed, ok := b.minServedLocked(); ok && q.served < minServed {
			q.served = minServed
		}
		b.active = append(b.active, q)
	}
	q.reqs = append(q.reqs, r)
	if r.sess != nil {
		b.waiting[r.sess]++
	}
	b.rows += r.rowCount()
	b.requests++
	if b.rows > b.peakQueueDepth {
		b.peakQueueDepth = b.rows
	}
	// Bound the idle-account map: queues with no pending work only carry a
	// served counter, prune them once the map grows past any plausible
	// concurrency level.
	if len(b.queues) > 4096 {
		for k, qq := range b.queues {
			if len(qq.reqs) == 0 {
				delete(b.queues, k)
			}
		}
	}
	return true
}

func (b *Batcher) minServedLocked() (int64, bool) {
	var min int64
	ok := false
	for _, q := range b.active {
		if !ok || q.served < min {
			min, ok = q.served, true
		}
	}
	return min, ok
}

func (b *Batcher) removeActiveLocked(q *queryQueue) {
	for i, a := range b.active {
		if a == q {
			b.active = append(b.active[:i], b.active[i+1:]...)
			return
		}
	}
}

// oldestLocked returns the earliest enqueue time among pending requests
// (each queue is FIFO, so heads suffice).
func (b *Batcher) oldestLocked() time.Time {
	var oldest time.Time
	for _, q := range b.active {
		if t := q.reqs[0].enq; oldest.IsZero() || t.Before(oldest) {
			oldest = t
		}
	}
	return oldest
}

// readyLocked reports whether every engaged session has a request pending:
// no live session can add rows, so holding the window gains nothing.
func (b *Batcher) readyLocked() bool {
	engaged := b.core.engaged.Load()
	return engaged > 0 && int64(len(b.waiting)) >= engaged
}

func (b *Batcher) urgentPendingLocked(now time.Time) bool {
	for _, q := range b.active {
		for _, r := range q.reqs {
			if r.urgent(now, b.cfg.UrgentSlack) {
				return true
			}
		}
	}
	return false
}

// run is the scheduler loop: wait for work, hold the admission window, then
// select and execute one fused batch per iteration.
func (b *Batcher) run() {
	for {
		b.mu.Lock()
		if b.rows == 0 {
			closed := b.closed
			b.mu.Unlock()
			if closed {
				close(b.exited)
				return
			}
			select {
			case <-b.wake:
			case <-b.closeCh:
			}
			continue
		}
		now := time.Now()
		full := b.rows >= b.core.maxBatch
		urgent := b.urgentPendingLocked(now)
		ready := b.readyLocked()
		if !full && !urgent && !ready && !b.closed {
			if age := now.Sub(b.oldestLocked()); age < b.cfg.Window {
				b.mu.Unlock()
				t := time.NewTimer(b.cfg.Window - age)
				select {
				case <-b.wake:
				case <-t.C:
				case <-b.closeCh:
				}
				t.Stop()
				continue
			}
		}
		switch {
		case urgent:
			b.urgentFlushes++
		case full:
			b.sizeFlushes++
		case b.closed:
			b.drainFlushes++
		case ready:
			b.readyFlushes++
		default:
			b.windowFlushes++
		}
		fb := b.selectLocked(now, b.core.maxBatch)
		b.mu.Unlock()
		b.execute(fb)
	}
}

// segment is a contiguous row range of one request packed into a fused batch.
type segment struct {
	req    *request
	lo, hi int
}

type fusedBatch struct {
	segs    []segment
	rows    int
	tokens  int
	queries int
}

// add packs rows [lo, hi) of r into the batch as one segment.
func (fb *fusedBatch) add(r *request, lo, hi int) {
	for i := lo; i < hi; i++ {
		fb.tokens += r.tokensAt(i)
	}
	fb.segs = append(fb.segs, segment{req: r, lo: lo, hi: hi})
	fb.rows += hi - lo
}

// selectLocked packs up to cap rows into one fused batch. Urgent requests go
// first (earliest deadline), then deficit fair-share across queries.
func (b *Batcher) selectLocked(now time.Time, cap int) *fusedBatch {
	fb := &fusedBatch{}
	seen := map[string]bool{}
	for fb.rows < cap && b.rows > 0 {
		q, urgent := b.pickLocked(now)
		r := q.reqs[0]
		take := r.rowCount() - r.next
		if room := cap - fb.rows; take > room {
			take = room
		}
		if !urgent && take > b.cfg.Quantum {
			take = b.cfg.Quantum
		}
		lo := r.next
		hi := lo + take
		r.next = hi
		if rt := r.trace; rt != nil {
			if lo == 0 {
				rt.waitUS = now.Sub(r.enq).Microseconds()
			}
			// The batch being packed gets id fusedBatches+1 (the counter
			// increments when selection completes below). Dedupe: the fair-
			// share loop can pick the same request twice for one batch.
			if id := b.fusedBatches + 1; len(rt.batches) == 0 || rt.batches[len(rt.batches)-1] != id {
				rt.batches = append(rt.batches, id)
			}
		}
		fb.add(r, lo, hi)
		if !seen[q.key] {
			seen[q.key] = true
			fb.queries++
		}
		q.served += int64(take)
		b.rows -= take
		if r.next == r.rowCount() {
			// Clear the slot: an idle queue outlives its query (its served
			// account stays in b.queues), and a stale pointer in its
			// backing array would pin the request's inputs and outputs.
			q.reqs[0] = nil
			q.reqs = q.reqs[1:]
			if len(q.reqs) == 0 {
				b.removeActiveLocked(q)
			}
			if r.sess != nil {
				if b.waiting[r.sess]--; b.waiting[r.sess] == 0 {
					delete(b.waiting, r.sess)
				}
			}
		}
	}
	// Fairness telemetry: the service spread among queries still contending.
	b.fairnessDeficit = 0
	if len(b.active) > 1 {
		var min, max int64
		for i, q := range b.active {
			if i == 0 || q.served < min {
				min = q.served
			}
			if i == 0 || q.served > max {
				max = q.served
			}
		}
		b.fairnessDeficit = max - min
	}
	b.fusedBatches++
	b.rowsFused += int64(fb.rows)
	if fb.queries > 1 {
		b.multiQuery++
	}
	return fb
}

// pickLocked chooses the queue to draw rows from next: the queue holding the
// most urgent request when any deadline is within slack (earliest deadline
// wins), otherwise the least-served queue (ties go to arrival order). Within
// a queue, requests are served FIFO.
func (b *Batcher) pickLocked(now time.Time) (*queryQueue, bool) {
	var uq *queryQueue
	var ud time.Time
	for _, q := range b.active {
		for _, r := range q.reqs {
			if r.urgent(now, b.cfg.UrgentSlack) && (uq == nil || r.qos.Deadline.Before(ud)) {
				uq, ud = q, r.qos.Deadline
			}
		}
	}
	if uq != nil {
		return uq, true
	}
	best := b.active[0]
	for _, q := range b.active[1:] {
		if q.served < best.served {
			best = q
		}
	}
	return best, false
}

// execute runs one fused batch on the device executor and completes the
// requests whose last rows just executed. Panics inside a segment are
// captured per request and re-raised in the submitting goroutine, never in
// the scheduler or a pool worker.
func (b *Batcher) execute(fb *fusedBatch) {
	if f := fault.Hit(fault.BatcherExecute); f != nil && f.Failure() {
		// The fused dispatch itself fails: every participating request gets
		// the fault as its panic value (re-raised in its submitting
		// goroutine), nothing is charged or scored, and the breaker counts
		// one failed dispatch.
		for _, sg := range fb.segs {
			sg.req.recordPanic(f)
		}
		b.finish(fb)
		b.noteDispatch(true)
		return
	}
	failed := b.core.run(fb)
	b.finish(fb)
	b.noteDispatch(failed)
}

// run is the device executor behind every dispatch, fused or not: it
// charges the latency model once for fb, advances the shared clock and
// counters, records the charged interval on every traced request in the
// batch, and scores the segments sharded across the worker pool. Panics
// inside a segment are captured per request; run reports whether any row
// of the batch panicked.
func (c *core) run(fb *fusedBatch) (failed bool) {
	cost := c.latency.Cost(fb.rows, fb.tokens)
	c.mu.Lock()
	workers := c.workers
	pool := c.pool
	vstart := c.clock
	c.clock += cost
	c.busy += cost
	c.batches++
	c.sequences += int64(fb.rows)
	c.tokens += int64(fb.tokens)
	vend := c.clock
	c.mu.Unlock()
	if pool != nil {
		workers = pool.Size()
	}
	for _, sg := range fb.segs {
		if rt := sg.req.trace; rt != nil {
			if !rt.hasV {
				rt.vstart, rt.hasV = vstart, true
			}
			rt.vend = vend
			if fb.queries > rt.occupancy {
				rt.occupancy = fb.queries
			}
		}
	}

	shards := fb.shards(workers)
	if len(shards) == 1 {
		shards[0]()
	} else {
		runShards(shards, pool)
	}

	for _, sg := range fb.segs {
		sg.req.panicMu.Lock()
		failed = failed || sg.req.panicked
		sg.req.panicMu.Unlock()
	}
	return failed
}

// finish completes requests whose last rows just executed (or were abandoned
// by a failed dispatch), waking their submitting goroutines.
func (b *Batcher) finish(fb *fusedBatch) {
	for _, sg := range fb.segs {
		r := sg.req
		r.remaining -= sg.hi - sg.lo
		if r.remaining == 0 {
			close(r.done)
		}
	}
}

// noteDispatch feeds the circuit breaker one fused-dispatch outcome:
// consecutive failures trip it open for the cooldown, any success closes it
// and clears the streak.
func (b *Batcher) noteDispatch(failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !failed {
		b.breakerFails = 0
		b.breakerOpen = false
		return
	}
	b.breakerFails++
	if !b.breakerOpen && b.breakerFails >= b.cfg.BreakerThreshold {
		b.breakerOpen = true
		b.breakerUntil = time.Now().Add(b.cfg.BreakerCooldown)
		b.breakerTrips++
	}
}

// shards splits the fused batch's segments into at most ~workers closures of
// roughly even row counts. Each closure recovers its own panics into the
// owning request, so a poisoned row never unwinds a shared worker.
func (fb *fusedBatch) shards(workers int) []func() {
	if workers < 1 {
		workers = 1
	}
	if workers > fb.rows {
		workers = fb.rows
	}
	per := (fb.rows + workers - 1) / workers
	var out []func()
	for _, sg := range fb.segs {
		for lo := sg.lo; lo < sg.hi; lo += per {
			hi := lo + per
			if hi > sg.hi {
				hi = sg.hi
			}
			piece := segment{req: sg.req, lo: lo, hi: hi}
			out = append(out, func() { piece.exec() })
		}
	}
	return out
}

// exec scores one segment through the submitting view's model. It is the
// only place a dispatch calls the model, fused or not, which is what makes
// fusion result-transparent.
func (sg segment) exec() {
	r := sg.req
	defer func() {
		if p := recover(); p != nil {
			r.recordPanic(p)
		}
	}()
	switch r.kind {
	case reqForward:
		copy(r.rows[sg.lo:sg.hi], r.lm.ScoreBatch(r.ctxs[sg.lo:sg.hi]))
	case reqPrefill:
		for i := sg.lo; i < sg.hi; i++ {
			r.outStates[i], r.rows[i] = model.Prefill(r.lm, r.ctxs[i])
		}
	case reqExtend:
		ns, rs := model.Extend(r.lm, r.states[sg.lo:sg.hi], r.tokens[sg.lo:sg.hi])
		copy(r.outStates[sg.lo:sg.hi], ns)
		copy(r.rows[sg.lo:sg.hi], rs)
	case reqScoreAll:
		for i := sg.lo; i < sg.hi; i++ {
			r.allRows[i] = model.AllPositionLogProbs(r.lm, r.ctxs[i])
		}
	}
}
