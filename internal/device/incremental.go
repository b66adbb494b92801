package device

import (
	"repro/internal/fault"
	"repro/internal/model"
)

// Incremental dispatch (DESIGN.md decision 10). These entry points share
// Forward's dispatch path — chunking by MaxBatch, charging the latency
// model, sharding each batch across the worker pool — but price what an
// accelerator actually executes (request.tokensAt): a Prefill pays for
// every context token, an ExtendBatch pays for exactly one new token per
// sequence, and ScoreAll pays for one causal pass over the sequence instead
// of one pass per position. The virtual clock therefore shows the same
// asymptotic win the wall clock does.

// Prefill computes decode states and next-token log-probs for ctxs in one
// dispatch. Cost: one batch at the full token count (identical to Forward on
// the same contexts).
func (d *Device) Prefill(ctxs [][]model.Token) ([]model.DecodeState, [][]float64) {
	r := &request{
		kind:      reqPrefill,
		ctxs:      ctxs,
		rows:      make([][]float64, len(ctxs)),
		outStates: make([]model.DecodeState, len(ctxs)),
	}
	d.dispatch(fault.DevicePrefill, r)
	return r.outStates, r.rows
}

// ExtendBatch advances each state by one token in one dispatch. Cost: one
// token per sequence — the incremental saving, on the virtual clock.
func (d *Device) ExtendBatch(states []model.DecodeState, tokens []model.Token) ([]model.DecodeState, [][]float64) {
	r := &request{
		kind:      reqExtend,
		states:    states,
		tokens:    tokens,
		rows:      make([][]float64, len(states)),
		outStates: make([]model.DecodeState, len(states)),
	}
	d.dispatch(fault.DeviceExtend, r)
	return r.outStates, r.rows
}

// ScoreAll returns every position's next-token log-probs for each sequence
// (row p of a sequence's result conditions on its first p tokens). Cost: one
// sequence at its token count per entry — one causal pass, not len(seq)
// row-expanded contexts.
func (d *Device) ScoreAll(seqs [][]model.Token) [][][]float64 {
	r := &request{kind: reqScoreAll, ctxs: seqs, allRows: make([][][]float64, len(seqs))}
	d.dispatch(fault.DeviceScoreAll, r)
	return r.allRows
}
