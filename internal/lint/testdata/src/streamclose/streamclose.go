// Package streamclose is the fixture for the streamclose analyzer: streams,
// arena handles and sessions that leak, owned results that are discarded outright,
// and every sanctioned way of releasing or transferring ownership.
package streamclose

import (
	"time"

	"repro/internal/engine"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/relm"
)

func open() (*relm.Results, error) { return nil, nil }

func openStream() engine.Stream { return nil }

func use(*relm.Results) {}

type holder struct {
	r *relm.Results
}

// Positive: acquired, used, never closed.
func leak() {
	results, err := open() // want `results \(\*relm.Results\) is never Closed`
	if err != nil {
		return
	}
	_, _ = results.Next()
}

// Positive: engine.Stream leaks the same way.
func leakStream() {
	s := openStream() // want `s \(engine.Stream\) is never Closed`
	_, _ = s.Next()
}

// Positive: discarding the stream result with the blank identifier.
func discardBlank() {
	_, _ = open() // want `owned result of open discarded with _`
}

// Positive: dropping the result on the floor as a statement.
func discardStmt() {
	open() // want `call to open discards its owned result`
}

// Negative: deferred Close.
func closed() error {
	results, err := open()
	if err != nil {
		return err
	}
	defer results.Close()
	_, _ = results.Next()
	return nil
}

// Negative: returning the stream transfers ownership to the caller.
func handoffReturn() (*relm.Results, error) {
	results, err := open()
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Negative: passing the stream to another function transfers ownership.
func handoffArg() error {
	results, err := open()
	if err != nil {
		return err
	}
	use(results)
	return nil
}

// Negative: storing the stream in a struct transfers ownership.
func handoffStore() (*holder, error) {
	results, err := open()
	if err != nil {
		return nil, err
	}
	return &holder{r: results}, nil
}

// Negative: sending the stream on a channel transfers ownership.
func handoffSend(ch chan *relm.Results) error {
	results, err := open()
	if err != nil {
		return err
	}
	ch <- results
	return nil
}

// Suppressed: an audited process-lifetime stream.
func audited() {
	//relm:allow(streamclose) process-lifetime probe stream, reclaimed at exit
	results, err := open() // wantallow `results \(\*relm.Results\) is never Closed`
	if err != nil {
		return
	}
	_, _ = results.Next()
}

// --- kvcache.Handle: Release is the release method, not Close. ---

type pinned struct {
	h *kvcache.Handle
}

// Positive: an acquired handle that never reaches Release pins its arena
// node — and its bytes — forever.
func leakHandle(a *kvcache.Arena, ctx []model.Token) {
	h := a.Acquire(ctx) // want `h \(\*kvcache.Handle\) is never Released`
	if h == nil {
		return
	}
	_ = h.State()
}

// Positive: a committed state's handle leaks the same way.
func leakCommit(a *kvcache.Arena, ctx []model.Token, st model.DecodeState) {
	h := a.Commit(nil, ctx, st) // want `h \(\*kvcache.Handle\) is never Released`
	_ = h.State()
}

// Positive: dropping the pinned handle on the floor.
func discardHandle(a *kvcache.Arena, ctx []model.Token, st model.DecodeState) {
	a.Commit(nil, ctx, st) // want `call to a.Commit discards its owned result`
}

// Negative: released (including the chained commit-and-release idiom).
func releasedHandle(a *kvcache.Arena, ctx []model.Token, st model.DecodeState) {
	h := a.Acquire(ctx)
	defer h.Release()
	a.Commit(h, ctx, st).Release()
}

// Negative: calling Close on a handle does NOT release it — only Release
// counts for this type.
func wrongMethod(a *kvcache.Arena, ctx []model.Token) {
	type closer struct{ h *kvcache.Handle }
	h := a.Acquire(ctx) // want `h \(\*kvcache.Handle\) is never Released`
	if h == nil {
		return
	}
	_ = closer{}
	_ = h.State()
}

// Negative: storing the handle in a composite literal transfers ownership
// (the engine's ext{parent: h} frontier bookkeeping).
func handoffHandleStore(a *kvcache.Arena, ctx []model.Token) *pinned {
	h := a.Acquire(ctx)
	return &pinned{h: h}
}

// Negative: passing the handle transfers ownership.
func handoffHandleArg(a *kvcache.Arena, ctx []model.Token, sink func(*kvcache.Handle)) {
	h := a.Acquire(ctx)
	sink(h)
}

// --- relm.Session: an open session keeps the fusion batcher waiting. ---

// Positive: a session that never reaches Close counts as a live query for
// the model's lifetime.
func leakSession(m *relm.Model) {
	sess := m.NewSession() // want `sess \(\*relm.Session\) is never Closed`
	sess.SetQoS("q1", time.Time{})
	_ = sess.Model
}

// Negative: deferred Close.
func closedSession(m *relm.Model) {
	sess := m.NewSession()
	defer sess.Close()
	sess.SetQoS("q1", time.Time{})
	_ = sess.Model
}
