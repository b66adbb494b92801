package device

import (
	"strconv"

	"repro/internal/trace"
)

// Dispatch tracing. A traced view records one span per dispatch —
// "device.forward", "device.prefill", "device.extend", "device.scoreall"
// — carrying the virtual-clock interval the dispatch charged plus, under
// fusion, the batcher's record of the ride: queue wait, fusion-batch ids,
// and cross-query occupancy. Untraced views (the common case) pay one nil
// check per dispatch and allocate nothing; the overhead gate pins this.

// WithTrace returns a view whose dispatches record spans into tr, parented
// under parent. Same model, QoS, session, and shared core as the receiver.
func (d *Device) WithTrace(tr *trace.Trace, parent trace.SpanID) *Device {
	v := *d
	v.tr, v.trParent = tr, parent
	return &v
}

// TraceContext returns the view's trace and parent span id (nil, 0 when
// untraced). Layers above the device — the engine's KV bookkeeping — use
// it to hang sibling spans off the same parent.
func (d *Device) TraceContext() (*trace.Trace, trace.SpanID) { return d.tr, d.trParent }

// traceStart opens a dispatch span before the request is submitted (so
// its wall time covers any queue wait) and arms the request's trace record,
// which core.run and the scheduler fill in.
func (d *Device) traceStart(name string, r *request) trace.SpanID {
	if d.tr == nil {
		return 0
	}
	r.trace = &reqTrace{}
	return d.tr.Start(d.trParent, name)
}

// traceEnd closes a dispatch span with the virtual-clock interval from the
// start of the request's first batch to the end of its last (so a request
// that fits one batch reports exactly that batch's charge, whatever other
// views charge meanwhile) plus, when the batcher carried the rows, its
// record of the ride.
// The record is complete before the request returns to its caller (the
// scheduler closes done after writing it; an unfused run writes it on the
// calling goroutine), so reading it here is race-free.
func (d *Device) traceEnd(span trace.SpanID, r *request, fused bool) {
	if span == 0 {
		return
	}
	rt := r.trace
	if rt.hasV {
		d.tr.SetVDev(span, rt.vstart, rt.vend)
	}
	d.tr.Annotate(span, "fused", strconv.FormatBool(fused))
	if fused {
		for _, bid := range rt.batches {
			d.tr.Annotate(span, "fusion_batch", strconv.FormatInt(bid, 10))
		}
		d.tr.Annotate(span, "queue_wait_us", strconv.FormatInt(rt.waitUS, 10))
		d.tr.Annotate(span, "batch_queries", strconv.Itoa(rt.occupancy))
	}
	n, tokens := r.rowCount(), 0
	for i := 0; i < n; i++ {
		tokens += r.tokensAt(i)
	}
	d.tr.Annotate(span, "rows", strconv.Itoa(n))
	d.tr.Annotate(span, "tokens", strconv.Itoa(tokens))
	d.tr.End(span)
}
