package device

import (
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

// TestUnfusedShardPanicReachesCaller: without a Pool, an unfused dispatch
// shards rows onto transient goroutines when SetWorkers > 1. A row that
// panics there must re-raise in the calling goroutine as a recoverable
// panic — not unwind a bare goroutine and kill the process.
func TestUnfusedShardPanicReachesCaller(t *testing.T) {
	lm := &panicLM{model.Uniform{Vocab: 8, EOSTok: 7, SeqLen: 16}}
	d := New(lm, DefaultLatency(), 64)
	d.SetWorkers(4)
	ctxs := [][]model.Token{{1}, {2}, {3}, {4}, {5}, {6}, {1, 2}, {3, 4}}

	func() {
		defer func() {
			if p := recover(); p != "poison token" {
				t.Errorf("recovered %v, want the row's panic value", p)
			}
		}()
		d.Forward(ctxs)
	}()

	// The device still serves after the failed dispatch.
	if out := d.Forward(ctxs[:5]); len(out) != 5 {
		t.Fatalf("got %d rows after a poisoned dispatch, want 5", len(out))
	}
}

// gateLM signals when ScoreBatch is entered and blocks there until
// released.
type gateLM struct {
	model.Uniform
	entered, release chan struct{}
}

func (g *gateLM) ScoreBatch(ctxs [][]model.Token) [][]float64 {
	close(g.entered)
	<-g.release
	return g.Uniform.ScoreBatch(ctxs)
}

// TestUnfusedSpanVDevIsOwnCharge: an unfused dispatch span reports the
// virtual-clock interval its own batch charged, even when another view
// charges the shared clock while the dispatch is still scoring.
func TestUnfusedSpanVDevIsOwnCharge(t *testing.T) {
	d := newDevice(64)
	gate := &gateLM{
		Uniform: model.Uniform{Vocab: 8, EOSTok: 7, SeqLen: 16},
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	tracer := trace.New(1, 0)
	trA, trB := tracer.NewTrace(), tracer.NewTrace()
	viewA := d.WithModel(gate).WithTrace(trA, trace.RootID)
	viewB := d.WithTrace(trB, trace.RootID)

	ctxsA := [][]model.Token{{1, 2}, {3}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		viewA.Forward(ctxsA)
	}()
	<-gate.entered
	viewB.Forward([][]model.Token{{4, 5, 6}})
	close(gate.release)
	<-done

	spans := trA.Finish().Find("device.forward")
	if len(spans) != 1 {
		t.Fatalf("view A recorded %d device.forward spans, want 1", len(spans))
	}
	sp := spans[0]
	if want := DefaultLatency().Cost(len(ctxsA), 3); sp.VDev() != want {
		t.Errorf("view A span vdev = %v, want its own charge %v", sp.VDev(), want)
	}
	if got := sp.Attr("fused"); got != "false" {
		t.Errorf("fused = %q, want false", got)
	}
}
