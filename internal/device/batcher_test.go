package device

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

// newBareBatcher builds a batcher over the device WITHOUT starting the
// scheduler goroutine, so white-box tests can drive enqueue/selectLocked
// deterministically.
func newBareBatcher(d *Device, cfg BatcherConfig) *Batcher {
	cfg.defaults()
	return &Batcher{
		cfg:     cfg,
		core:    d.c,
		queues:  map[string]*queryQueue{},
		waiting: map[*session]int{},
		wake:    make(chan struct{}, 1),
		closeCh: make(chan struct{}),
		exited:  make(chan struct{}),
	}
}

func enqueueRows(b *Batcher, key string, n int, deadline time.Time) *request {
	ctxs := make([][]model.Token, n)
	for i := range ctxs {
		ctxs[i] = []model.Token{1}
	}
	r := &request{
		kind: reqForward,
		qos:  QoS{Query: key, Deadline: deadline},
		key:  key,
		enq:  time.Now(),
		ctxs: ctxs,
		rows: make([][]float64, n),
		done: make(chan struct{}),
	}
	r.remaining = n
	if !b.enqueue(r) {
		panic("enqueue on closed batcher")
	}
	return r
}

func segRows(fb *fusedBatch) []string {
	var out []string
	for _, sg := range fb.segs {
		out = append(out, fmt.Sprintf("%s[%d:%d]", sg.req.key, sg.lo, sg.hi))
	}
	return out
}

// TestBatcherFairShareSelection pins the selection policy: deficit
// fair-share with quantum-bounded picks. A 16-row query contending with two
// 2-row queries gets exactly one quantum before the small queries are
// served, and the remainder only once it is alone.
func TestBatcherFairShareSelection(t *testing.T) {
	b := newBareBatcher(newDevice(8), BatcherConfig{Quantum: 4})
	enqueueRows(b, "A", 16, time.Time{})
	enqueueRows(b, "B", 2, time.Time{})
	enqueueRows(b, "C", 2, time.Time{})

	b.mu.Lock()
	fb1 := b.selectLocked(time.Now(), b.core.maxBatch)
	fb2 := b.selectLocked(time.Now(), b.core.maxBatch)
	b.mu.Unlock()

	want1 := []string{"A[0:4]", "B[0:2]", "C[0:2]"}
	if got := segRows(fb1); !reflect.DeepEqual(got, want1) {
		t.Errorf("batch 1 = %v, want %v", got, want1)
	}
	want2 := []string{"A[4:8]", "A[8:12]"}
	if got := segRows(fb2); !reflect.DeepEqual(got, want2) {
		t.Errorf("batch 2 = %v, want %v", got, want2)
	}
	if fb1.queries != 3 || fb2.queries != 1 {
		t.Errorf("queries = %d, %d; want 3, 1", fb1.queries, fb2.queries)
	}
}

// TestBatcherServedFloorOnJoin: a query joining mid-contention inherits the
// current service floor instead of banked credit — it may not monopolize the
// next fused batch just because it was idle while others were served.
func TestBatcherServedFloorOnJoin(t *testing.T) {
	b := newBareBatcher(newDevice(8), BatcherConfig{Quantum: 4})
	enqueueRows(b, "A", 8, time.Time{})
	b.mu.Lock()
	b.selectLocked(time.Now(), b.core.maxBatch) // A served 8, queue drained
	b.mu.Unlock()

	enqueueRows(b, "A", 8, time.Time{})
	enqueueRows(b, "B", 8, time.Time{}) // B joins now: floor = A's 8, not 0
	if got := b.queues["B"].served; got != 8 {
		t.Fatalf("B joined with served=%d, want floor 8", got)
	}
	b.mu.Lock()
	fb := b.selectLocked(time.Now(), b.core.maxBatch)
	b.mu.Unlock()
	// Equal accounts alternate by quantum instead of B sweeping the batch.
	want := []string{"A[0:4]", "B[0:4]"}
	if got := segRows(fb); !reflect.DeepEqual(got, want) {
		t.Errorf("batch = %v, want %v", got, want)
	}
}

// TestBatcherUrgentSelection: a near-deadline request jumps the fairness
// order and ignores the quantum; among urgent requests the earliest deadline
// wins.
func TestBatcherUrgentSelection(t *testing.T) {
	b := newBareBatcher(newDevice(16), BatcherConfig{Quantum: 2, UrgentSlack: time.Second})
	now := time.Now()
	enqueueRows(b, "bulk", 10, time.Time{})
	enqueueRows(b, "later", 2, now.Add(800*time.Millisecond))
	enqueueRows(b, "soon", 6, now.Add(100*time.Millisecond))

	b.mu.Lock()
	fb := b.selectLocked(now, b.core.maxBatch)
	b.mu.Unlock()
	got := segRows(fb)
	// soon (earliest deadline) first and unquantized (6 > quantum 2), then
	// later, then bulk fills the rest fairly.
	if len(got) < 2 || got[0] != "soon[0:6]" || got[1] != "later[0:2]" {
		t.Errorf("urgent order wrong: %v", got)
	}
}

// TestBatcherFusesConcurrentForwards: concurrent submissions inside one
// admission window execute as ONE device batch — one dispatch charge — and
// every caller gets exactly its own rows back.
func TestBatcherFusesConcurrentForwards(t *testing.T) {
	d := newDevice(64)
	b := StartBatcher(d, BatcherConfig{Window: 200 * time.Millisecond})
	defer b.Close()

	direct := newDevice(64) // unfused reference

	const queries, rows = 8, 4
	var wg sync.WaitGroup
	outs := make([][][]float64, queries)
	for qi := 0; qi < queries; qi++ {
		view := d.WithQoS(QoS{Query: fmt.Sprintf("q%d", qi)})
		ctxs := make([][]model.Token, rows)
		for i := range ctxs {
			ctxs[i] = []model.Token{model.Token(qi), model.Token(i)}
		}
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			outs[qi] = view.Forward(ctxs)
		}(qi)
	}
	wg.Wait()

	for qi := 0; qi < queries; qi++ {
		ctxs := make([][]model.Token, rows)
		for i := range ctxs {
			ctxs[i] = []model.Token{model.Token(qi), model.Token(i)}
		}
		if want := direct.Forward(ctxs); !reflect.DeepEqual(outs[qi], want) {
			t.Errorf("query %d rows differ under fusion", qi)
		}
	}

	st := d.Stats()
	if st.Batches != 1 {
		t.Errorf("device ran %d batches, want 1 fused batch", st.Batches)
	}
	if st.Sequences != queries*rows {
		t.Errorf("sequences = %d, want %d", st.Sequences, queries*rows)
	}
	if want := DefaultLatency().Cost(queries*rows, queries*rows*2); st.Clock != want {
		t.Errorf("clock = %v, want one fused charge %v", st.Clock, want)
	}
	bs := b.Stats()
	if bs.FusedBatches != 1 || bs.MultiQueryBatches != 1 {
		t.Errorf("batcher stats %+v, want 1 fused multi-query batch", bs)
	}
	if bs.MeanOccupancy != queries*rows {
		t.Errorf("occupancy = %v, want %d", bs.MeanOccupancy, queries*rows)
	}
}

// TestBatcherSizeWatermarkFlush: pending rows reaching the device cap flush
// immediately — a huge admission window must not delay a full batch.
func TestBatcherSizeWatermarkFlush(t *testing.T) {
	d := newDevice(4)
	b := StartBatcher(d, BatcherConfig{Window: 10 * time.Minute})
	defer b.Close()

	ctxs := make([][]model.Token, 8)
	for i := range ctxs {
		ctxs[i] = []model.Token{1}
	}
	done := make(chan [][]float64, 1)
	go func() { done <- d.Forward(ctxs) }()
	select {
	case out := <-done:
		if len(out) != 8 {
			t.Fatalf("got %d rows", len(out))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("size watermark did not flush; request stuck behind the window")
	}
	bs := b.Stats()
	if bs.SizeFlushes == 0 {
		t.Errorf("no size flushes recorded: %+v", bs)
	}
	if st := d.Stats(); st.Batches != 2 { // 8 rows through a cap-4 device
		t.Errorf("batches = %d, want 2", st.Batches)
	}
}

// TestBatcherWindowFlush: a lone sub-cap request flushes when its admission
// window expires, not at the size watermark.
func TestBatcherWindowFlush(t *testing.T) {
	d := newDevice(64)
	b := StartBatcher(d, BatcherConfig{Window: time.Millisecond})
	defer b.Close()
	if out := d.Forward([][]model.Token{{1}, {2}}); len(out) != 2 {
		t.Fatalf("got %d rows", len(out))
	}
	if bs := b.Stats(); bs.WindowFlushes == 0 {
		t.Errorf("no window flushes recorded: %+v", bs)
	}
}

// TestBatcherUrgentPreemptsWindow: a near-deadline arrival flushes a long
// admission window early, taking the waiting request with it.
func TestBatcherUrgentPreemptsWindow(t *testing.T) {
	d := newDevice(64)
	b := StartBatcher(d, BatcherConfig{Window: 10 * time.Minute, UrgentSlack: 250 * time.Millisecond})
	defer b.Close()

	patient := make(chan struct{})
	go func() {
		d.WithQoS(QoS{Query: "patient"}).Forward([][]model.Token{{1}})
		close(patient)
	}()
	// Wait until the patient request is actually queued.
	for i := 0; ; i++ {
		if b.Stats().QueueDepth == 1 {
			break
		}
		if i > 5000 {
			t.Fatal("patient request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	urgent := d.WithQoS(QoS{Query: "urgent", Deadline: time.Now().Add(10 * time.Millisecond)})
	done := make(chan struct{})
	go func() {
		urgent.Forward([][]model.Token{{2}})
		close(done)
	}()
	for _, ch := range []chan struct{}{done, patient} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("urgent arrival did not preempt the admission window")
		}
	}
	if bs := b.Stats(); bs.UrgentFlushes == 0 {
		t.Errorf("no urgent flushes recorded: %+v", bs)
	}
}

// TestBatcherAllKindsMatchDirect: every routed entry point — Forward,
// Prefill, ExtendBatch, ScoreAll — returns byte-identical results through
// the fusion queue, including when all four kinds land in the same window.
func TestBatcherAllKindsMatchDirect(t *testing.T) {
	fused := newDevice(64)
	b := StartBatcher(fused, BatcherConfig{Window: 50 * time.Millisecond})
	defer b.Close()
	direct := newDevice(64)

	ctxs := [][]model.Token{{1, 2}, {3}, {1, 2, 3, 4}}
	seqs := [][]model.Token{{1, 2, 3}, {4, 5}}

	dStates, dRows := direct.Prefill(ctxs)
	dExtStates, dExtRows := direct.ExtendBatch(dStates, []model.Token{5, 6, 7})
	dFwd := direct.Forward(ctxs)
	dAll := direct.ScoreAll(seqs)

	var fStates, fExtStates []model.DecodeState
	var fRows, fExtRows, fFwd [][]float64
	var fAll [][][]float64
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); fFwd = fused.Forward(ctxs) }()
	go func() { defer wg.Done(); fAll = fused.ScoreAll(seqs) }()
	go func() {
		defer wg.Done()
		fStates, fRows = fused.Prefill(ctxs)
		fExtStates, fExtRows = fused.ExtendBatch(fStates, []model.Token{5, 6, 7})
	}()
	wg.Wait()

	if !reflect.DeepEqual(fRows, dRows) {
		t.Error("Prefill rows differ under fusion")
	}
	if !reflect.DeepEqual(fExtRows, dExtRows) {
		t.Error("ExtendBatch rows differ under fusion")
	}
	if !reflect.DeepEqual(fFwd, dFwd) {
		t.Error("Forward rows differ under fusion")
	}
	if !reflect.DeepEqual(fAll, dAll) {
		t.Error("ScoreAll rows differ under fusion")
	}
	for i := range fExtStates {
		if !reflect.DeepEqual(fExtStates[i].Context(), dExtStates[i].Context()) {
			t.Errorf("extended state %d context differs", i)
		}
	}
	// Token accounting must survive fusion: prefill/forward/scoreAll pay per
	// context token, extend pays one token per sequence.
	wantTokens := int64(2*(2+1+4) + (3 + 2) + 3)
	if st := fused.Stats(); st.Tokens != wantTokens {
		t.Errorf("fused tokens = %d, want %d", st.Tokens, wantTokens)
	}
	if ds, fs := direct.Stats(), fused.Stats(); fs.Tokens != ds.Tokens || fs.Sequences != ds.Sequences {
		t.Errorf("fused accounting %+v differs from direct %+v", fs, ds)
	}

	// Shed and after-Close arms: a batcher that refuses admission leaves
	// each caller to run its own request as an unfused batch. Rows and
	// states match both arms above; the device accounting matches the
	// unfused arm exactly (same batches, same clock) and the fused arm's
	// sequences and tokens.
	open := newDevice(64)
	ob := newBareBatcher(open, BatcherConfig{})
	ob.breakerOpen, ob.breakerUntil = true, time.Now().Add(time.Hour)
	open.c.batcher.Store(ob)
	late := newDevice(64)
	lb := StartBatcher(late, BatcherConfig{})
	lb.Close()
	late.c.batcher.Store(lb) // a caller that loaded the batcher before Close
	for _, arm := range []struct {
		name string
		d    *Device
		b    *Batcher
	}{{"breaker-open", open, ob}, {"after-Close", late, lb}} {
		aStates, aRows := arm.d.Prefill(ctxs)
		aExtStates, aExtRows := arm.d.ExtendBatch(aStates, []model.Token{5, 6, 7})
		if !reflect.DeepEqual(aRows, dRows) || !reflect.DeepEqual(aRows, fRows) {
			t.Errorf("%s: Prefill rows differ", arm.name)
		}
		if !reflect.DeepEqual(aExtRows, dExtRows) || !reflect.DeepEqual(aExtRows, fExtRows) {
			t.Errorf("%s: ExtendBatch rows differ", arm.name)
		}
		if fwd := arm.d.Forward(ctxs); !reflect.DeepEqual(fwd, dFwd) || !reflect.DeepEqual(fwd, fFwd) {
			t.Errorf("%s: Forward rows differ", arm.name)
		}
		if all := arm.d.ScoreAll(seqs); !reflect.DeepEqual(all, dAll) || !reflect.DeepEqual(all, fAll) {
			t.Errorf("%s: ScoreAll rows differ", arm.name)
		}
		for i := range aExtStates {
			if !reflect.DeepEqual(aExtStates[i].Context(), dExtStates[i].Context()) ||
				!reflect.DeepEqual(aExtStates[i].Context(), fExtStates[i].Context()) {
				t.Errorf("%s: extended state %d context differs", arm.name, i)
			}
		}
		as, ds, fs := arm.d.Stats(), direct.Stats(), fused.Stats()
		if as != ds {
			t.Errorf("%s: accounting %+v differs from unfused %+v", arm.name, as, ds)
		}
		if as.Sequences != fs.Sequences || as.Tokens != fs.Tokens {
			t.Errorf("%s: accounting %+v differs from fused %+v", arm.name, as, fs)
		}
		if bs := arm.b.Stats(); bs.FusedBatches != 0 || bs.Requests != 0 {
			t.Errorf("%s: refused requests reached the scheduler: %+v", arm.name, bs)
		}
	}
	if got := ob.Stats().BreakerShed; got != 4 {
		t.Errorf("breaker-open arm shed %d requests, want 4", got)
	}
}

// TestBatcherFloodCannotStarve: a continuous flood of cheap single-row
// queries must not starve a large query; fair-share selection bounds the
// flood's service during the big query's lifetime.
func TestBatcherFloodCannotStarve(t *testing.T) {
	d := newDevice(8)
	b := StartBatcher(d, BatcherConfig{Window: 100 * time.Microsecond})
	defer b.Close()

	stop := make(chan struct{})
	var floodRows atomic.Int64
	var floodWg sync.WaitGroup
	for f := 0; f < 8; f++ {
		view := d.WithQoS(QoS{Query: fmt.Sprintf("cheap-%d", f)})
		floodWg.Add(1)
		go func() {
			defer floodWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				view.Forward([][]model.Token{{1}})
				floodRows.Add(1)
			}
		}()
	}

	big := d.WithQoS(QoS{Query: "expensive"})
	ctxs := make([][]model.Token, 16)
	for i := range ctxs {
		ctxs[i] = []model.Token{2}
	}
	const bigCalls, bigRows = 5, 5 * 16
	done := make(chan struct{})
	go func() {
		for i := 0; i < bigCalls; i++ {
			big.Forward(ctxs)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("expensive query starved by cheap flood")
	}
	served := floodRows.Load()
	close(stop)
	floodWg.Wait()

	// 8 cheap queries sharing fairly with 1 expensive one: ~8 flood rows per
	// expensive row. Far beyond that means the big query was being starved.
	if ratio := float64(served) / float64(bigRows); ratio > 50 {
		t.Errorf("flood served %d rows while expensive served %d (ratio %.1f), want bounded fair share",
			served, bigRows, ratio)
	} else {
		t.Logf("flood/expensive service ratio %.1f", ratio)
	}
}

// panicLM panics when asked to score the poison token.
type panicLM struct{ model.Uniform }

func (p *panicLM) ScoreBatch(ctxs [][]model.Token) [][]float64 {
	for _, c := range ctxs {
		for _, tk := range c {
			if tk == 6 {
				panic("poison token")
			}
		}
	}
	return p.Uniform.ScoreBatch(ctxs)
}

// TestBatcherPanicReachesSubmitter: a panic inside a fused row re-raises in
// the goroutine that submitted it — not in the scheduler, which must keep
// serving other queries afterwards.
func TestBatcherPanicReachesSubmitter(t *testing.T) {
	lm := &panicLM{model.Uniform{Vocab: 8, EOSTok: 7, SeqLen: 16}}
	d := New(lm, DefaultLatency(), 64)
	b := StartBatcher(d, BatcherConfig{Window: time.Millisecond})
	defer b.Close()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("poisoned Forward did not panic in the submitter")
			}
		}()
		d.Forward([][]model.Token{{6}})
	}()

	// Scheduler must still be alive and serving.
	if out := d.Forward([][]model.Token{{1}}); len(out) != 1 {
		t.Fatalf("batcher dead after poisoned request: %v", out)
	}
}

// TestBatcherCloseDrainsAndFallsBack: Close waits for queued work, later
// calls use direct dispatch, double-Close is safe, and the scheduler
// goroutine exits (no leak).
func TestBatcherCloseDrainsAndFallsBack(t *testing.T) {
	before := runtime.NumGoroutine()
	d := newDevice(64)
	b := StartBatcher(d, BatcherConfig{Window: 50 * time.Millisecond})

	var out [][]float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); out = d.Forward([][]model.Token{{1}, {2}}) }()
	for i := 0; b.Stats().QueueDepth == 0 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}
	b.Close()
	wg.Wait()
	if len(out) != 2 {
		t.Fatalf("queued request lost on Close: %v", out)
	}
	if bs := b.Stats(); bs.DrainFlushes+bs.WindowFlushes+bs.SizeFlushes == 0 {
		t.Errorf("drained request unaccounted: %+v", bs)
	}

	fusedBatches := b.Stats().FusedBatches
	if got := d.Forward([][]model.Token{{3}}); len(got) != 1 {
		t.Fatalf("direct fallback failed after Close: %v", got)
	}
	if b.Stats().FusedBatches != fusedBatches {
		t.Error("post-Close Forward went through the closed batcher")
	}
	if d.Batcher() != nil {
		t.Error("closed batcher still attached to the device")
	}
	b.Close() // idempotent

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines %d > %d before StartBatcher: scheduler leaked", n, before)
	}
}

// TestBatcherZeroRowCalls: empty submissions complete immediately without
// waking the scheduler or charging the device.
func TestBatcherZeroRowCalls(t *testing.T) {
	d := newDevice(64)
	b := StartBatcher(d, BatcherConfig{Window: 10 * time.Minute})
	defer b.Close()
	if out := d.Forward(nil); len(out) != 0 {
		t.Fatalf("got %v", out)
	}
	states, rows := d.Prefill(nil)
	if len(states) != 0 || len(rows) != 0 {
		t.Fatal("empty prefill returned rows")
	}
	if st := d.Stats(); st.Batches != 0 {
		t.Errorf("empty calls charged %d batches", st.Batches)
	}
}
