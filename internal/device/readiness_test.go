package device

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

// Readiness flushes (DESIGN.md decision 12): the batcher holds a partial
// batch only while some engaged session has no request pending. These
// tests use a one-hour window so that only the readiness rule can explain
// a prompt flush.

// waitQueued blocks until the batcher holds exactly rows pending rows.
func waitQueued(t *testing.T, b *Batcher, rows int) {
	t.Helper()
	for i := 0; b.Stats().QueueDepth != rows; i++ {
		if i > 5000 {
			t.Fatalf("queue depth never reached %d", rows)
		}
		time.Sleep(time.Millisecond)
	}
}

// forwardAsync runs a one-row Forward on v and returns its completion.
func forwardAsync(v *Device, tok model.Token) chan struct{} {
	done := make(chan struct{})
	go func() {
		v.Forward([][]model.Token{{tok}})
		close(done)
	}()
	return done
}

func awaitDone(t *testing.T, done chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: request stuck behind the admission window", what)
	}
}

func assertPending(t *testing.T, done chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s flushed while another live session could still add rows", what)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestBatcherLoneEngagedViewFlushesAtOnce: with one live session, its
// request is all the batch can ever hold, so it flushes without waiting
// out the window and counts as a ready flush.
func TestBatcherLoneEngagedViewFlushesAtOnce(t *testing.T) {
	d := newDevice(64)
	b := StartBatcher(d, BatcherConfig{Window: time.Hour})
	defer b.Close()
	v, release := d.Engage()
	defer release()

	awaitDone(t, forwardAsync(v, 1), "lone engaged view")
	bs := b.Stats()
	if bs.FusedBatches != 1 || bs.ReadyFlushes != 1 || bs.WindowFlushes != 0 {
		t.Errorf("stats %+v, want 1 fused batch flushed as ready", bs)
	}
}

// TestBatcherWaitsForEveryLiveSession: with two live sessions, the first
// request stays queued until the second session submits; then both ride
// one batch. Views derived from an engaged view (WithQoS, WithTrace)
// belong to its session.
func TestBatcherWaitsForEveryLiveSession(t *testing.T) {
	d := newDevice(64)
	b := StartBatcher(d, BatcherConfig{Window: time.Hour})
	defer b.Close()
	a, releaseA := d.Engage()
	defer releaseA()
	bv, releaseB := d.Engage()
	defer releaseB()

	doneA := forwardAsync(a.WithQoS(QoS{Query: "A"}), 1)
	waitQueued(t, b, 1)
	assertPending(t, doneA, "A")

	doneB := forwardAsync(bv.WithTrace(nil, 0), 2)
	awaitDone(t, doneA, "A")
	awaitDone(t, doneB, "B")
	bs := b.Stats()
	if bs.FusedBatches != 1 || bs.MultiQueryBatches != 1 || bs.ReadyFlushes != 1 {
		t.Errorf("stats %+v, want one multi-query batch flushed as ready", bs)
	}
}

// TestBatcherReleaseFlushesRemainingSession: releasing the one session
// that was not waiting leaves every live session waiting, so the queued
// request flushes at once. Release is idempotent.
func TestBatcherReleaseFlushesRemainingSession(t *testing.T) {
	d := newDevice(64)
	b := StartBatcher(d, BatcherConfig{Window: time.Hour})
	defer b.Close()
	a, releaseA := d.Engage()
	defer releaseA()
	_, releaseB := d.Engage()

	doneA := forwardAsync(a, 1)
	waitQueued(t, b, 1)
	assertPending(t, doneA, "A")

	releaseB()
	releaseB()
	awaitDone(t, doneA, "A after B's release")
	if got := d.c.engaged.Load(); got != 1 {
		t.Errorf("engaged = %d after releasing B twice, want 1", got)
	}
	if bs := b.Stats(); bs.ReadyFlushes != 1 || bs.WindowFlushes != 0 {
		t.Errorf("stats %+v, want 1 ready flush", bs)
	}
}

// TestBatcherUnengagedViewsKeepWindow: views never engaged do not count
// as sessions, so with no live session a request waits out the window.
func TestBatcherUnengagedViewsKeepWindow(t *testing.T) {
	const window = 50 * time.Millisecond
	d := newDevice(64)
	b := StartBatcher(d, BatcherConfig{Window: window})
	defer b.Close()

	start := time.Now()
	d.WithQoS(QoS{Query: "plain"}).Forward([][]model.Token{{1}})
	if el := time.Since(start); el < window {
		t.Errorf("unengaged request returned after %v, before the %v window", el, window)
	}
	if bs := b.Stats(); bs.WindowFlushes != 1 || bs.ReadyFlushes != 0 {
		t.Errorf("stats %+v, want 1 window flush and no ready flush", bs)
	}
}

// TestBatcherReadinessUnderChurn: sessions that engage, submit and
// release concurrently never strand a request behind a one-hour window —
// every engage is followed by a submit or a release, and each of those
// wakes the scheduler to re-check readiness.
func TestBatcherReadinessUnderChurn(t *testing.T) {
	d := newDevice(8)
	b := StartBatcher(d, BatcherConfig{Window: time.Hour})
	defer b.Close()

	const sessions, calls = 12, 20
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, release := d.Engage()
			defer release()
			for c := 0; c < calls; c++ {
				v.Forward([][]model.Token{{model.Token(i % 7)}, {1}})
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	awaitDone(t, done, "churning sessions")
	if got := d.c.engaged.Load(); got != 0 {
		t.Errorf("engaged = %d after every session released", got)
	}
	if bs := b.Stats(); bs.WindowFlushes != 0 || bs.Rows != sessions*calls*2 {
		t.Errorf("stats %+v, want %d rows and no window flush", bs, sessions*calls*2)
	}
}

// finalizedLM counts the rows it returned that the garbage collector has
// reclaimed.
type finalizedLM struct {
	model.Uniform
	freed atomic.Int64
}

func (f *finalizedLM) ScoreBatch(ctxs [][]model.Token) [][]float64 {
	rows := f.Uniform.ScoreBatch(ctxs)
	for _, row := range rows {
		runtime.SetFinalizer(&row[0], func(*float64) { f.freed.Add(1) })
	}
	return rows
}

// TestBatcherDoesNotRetainFinishedRequests: a query's idle queue outlives
// the query (it keeps the fair-share account), but must not keep its last
// request reachable — with one query key per request, that pinned every
// query's logit rows and decode states until the queue map was pruned.
func TestBatcherDoesNotRetainFinishedRequests(t *testing.T) {
	lm := &finalizedLM{Uniform: model.Uniform{Vocab: 8, EOSTok: 7, SeqLen: 16}}
	d := New(lm, DefaultLatency(), 64)
	b := StartBatcher(d, BatcherConfig{Window: 50 * time.Microsecond})
	defer b.Close()

	const n = 128
	for i := 0; i < n; i++ {
		d.WithQoS(QoS{Query: fmt.Sprintf("q%d", i)}).Forward([][]model.Token{{1}})
	}
	if got := b.Stats().FusedBatches; got != n {
		t.Fatalf("fused batches = %d, want %d", got, n)
	}
	for i := 0; i < 50 && lm.freed.Load() < n-2; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := lm.freed.Load(); got < n-2 {
		t.Errorf("%d of %d returned rows reclaimed; the fusion queue retains finished requests", got, n)
	}
}
