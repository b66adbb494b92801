package device

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/model"
)

// TestBatcherBreakerDegradeThenRecover drives the fusion circuit breaker
// through its full cycle: consecutive injected dispatch failures trip it
// open, an open breaker sheds new work back to its caller to run unfused,
// and after the cooldown a successful half-open probe closes it again.
func TestBatcherBreakerDegradeThenRecover(t *testing.T) {
	fault.Enable(fault.New(3).Set(fault.BatcherExecute, fault.Spec{FailN: 3}))
	t.Cleanup(fault.Disable)

	d := newDevice(8)
	b := newBareBatcher(d, BatcherConfig{
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
	})
	dispatchOnce := func() *request {
		r := enqueueRows(b, "q", 2, time.Time{})
		r.lm = d.lm // dispatch would set this; the bare harness must too
		b.mu.Lock()
		fb := b.selectLocked(time.Now(), b.core.maxBatch)
		b.mu.Unlock()
		b.execute(fb)
		<-r.done
		return r
	}

	// Three consecutive failed dispatches: each request gets the fault as its
	// panic value (re-raised in its submitting goroutine by submit), and the
	// third trips the breaker.
	for i := 1; i <= 3; i++ {
		r := dispatchOnce()
		if !r.panicked {
			t.Fatalf("dispatch %d: injected fault not recorded on the request", i)
		}
		if _, ok := r.panicVal.(*fault.Fault); !ok {
			t.Fatalf("dispatch %d: panic value %T, want *fault.Fault", i, r.panicVal)
		}
	}
	st := b.Stats()
	if st.BreakerState != "open" || st.BreakerTrips != 1 {
		t.Fatalf("after 3 failed dispatches: state=%s trips=%d, want open/1", st.BreakerState, st.BreakerTrips)
	}

	// Open: enqueue refuses, so the caller would run the request unfused.
	shed := &request{
		kind:      reqForward,
		key:       "q",
		ctxs:      [][]model.Token{{1}},
		rows:      make([][]float64, 1),
		remaining: 1,
		done:      make(chan struct{}),
	}
	if b.enqueue(shed) {
		t.Fatal("open breaker admitted a request; want it shed to its caller")
	}
	if got := b.Stats().BreakerShed; got != 1 {
		t.Fatalf("shed count = %d, want 1", got)
	}

	// Past the cooldown the next request is the half-open probe. The
	// injector's FailN budget is spent, so the dispatch succeeds and the
	// breaker closes.
	time.Sleep(60 * time.Millisecond)
	r := dispatchOnce()
	if r.panicked {
		t.Fatalf("half-open probe failed: %v", r.panicVal)
	}
	st = b.Stats()
	if st.BreakerState != "closed" || st.BreakerTrips != 1 || st.BreakerShed != 1 {
		t.Fatalf("after probe: state=%s trips=%d shed=%d, want closed/1/1", st.BreakerState, st.BreakerTrips, st.BreakerShed)
	}

	// A recovered batcher serves normally again.
	if r := dispatchOnce(); r.panicked {
		t.Fatalf("post-recovery dispatch failed: %v", r.panicVal)
	}
}

// TestBreakerShedFallsBackToDirectDispatch is the black-box version: with
// the breaker open, submit reports false and the caller's unfused batch still
// returns correct rows — degraded throughput, identical bytes.
func TestBreakerShedFallsBackToDirectDispatch(t *testing.T) {
	fault.Enable(fault.New(5).Set(fault.BatcherExecute, fault.Spec{FailN: 2}))
	t.Cleanup(fault.Disable)

	d := newDevice(8)
	b := newBareBatcher(d, BatcherConfig{BreakerThreshold: 2, BreakerCooldown: time.Hour})
	for i := 0; i < 2; i++ {
		r := enqueueRows(b, "q", 1, time.Time{})
		b.mu.Lock()
		fb := b.selectLocked(time.Now(), b.core.maxBatch)
		b.mu.Unlock()
		b.execute(fb)
		<-r.done
	}
	if st := b.Stats(); st.BreakerState != "open" {
		t.Fatalf("breaker state %s, want open", st.BreakerState)
	}

	// Attach the (open) batcher to the core: Forward consults it, enqueue
	// sheds, and the call completes as an unfused batch.
	d.c.batcher.Store(b)
	ctxs := [][]model.Token{{1}, {1, 2}}
	want := d.lm.ScoreBatch(ctxs)
	got := d.Forward(ctxs)
	if len(got) != len(want) {
		t.Fatalf("direct dispatch returned %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("row %d differs at %d: %v vs %v", i, k, got[i][k], want[i][k])
			}
		}
	}
}
