package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"repro/internal/server"
)

// outcome classifies one op for the failure accounting.
type outcome int

const (
	opOK      outcome = iota
	opRefused         // 429 or 503: admission control or drain
	opFailed          // any other status, a broken stream, or a non-final done status
)

// searchOp is what the client observed of one POST /v1/search.
type searchOp struct {
	key     string // the request body: identical bodies must stream identical bytes
	outcome outcome
	errMsg  string
	// start is when the client sent the request; due is when the schedule
	// wanted it sent (equal to start on closed loops). firstMatch and end
	// are when the first match line and the done event arrived.
	due, start, firstMatch, end time.Time
	matches                     int
	streamHash                  uint64 // FNV-1a over every match line, byte for byte
	bytes                       int64  // response bytes read
	done                        server.DoneEvent
}

// ttfm is the time to the first streamed match from when the op was due;
// an op that streamed no match reports its time to done.
func (o *searchOp) ttfm() time.Duration {
	if o.firstMatch.IsZero() {
		return o.end.Sub(o.due)
	}
	return o.firstMatch.Sub(o.due)
}

func (o *searchOp) latency() time.Duration { return o.end.Sub(o.due) }

var (
	matchPrefix = []byte(`{"type":"match"`)
	donePrefix  = []byte(`{"type":"done"`)
)

// newReader returns a connection worker's stream reader, reused across its
// requests so the load generator allocates little per op.
func newReader() *bufio.Reader { return bufio.NewReaderSize(nil, 64<<10) }

// search sends one request and reads its NDJSON stream to the done event
// through br, a reader from newReader owned by the calling worker.
func (w *world) search(br *bufio.Reader, body []byte, due time.Time) searchOp {
	op := searchOp{key: string(body), due: due, start: time.Now()}
	if due.IsZero() {
		op.due = op.start
	}
	resp, err := w.client.Post(w.url("/v1/search"), "application/json", bytes.NewReader(body))
	if err != nil {
		op.outcome, op.errMsg, op.end = opFailed, err.Error(), time.Now()
		return op
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body) // diagnostic only
		op.end = time.Now()
		op.outcome = opFailed
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			op.outcome = opRefused
		}
		op.errMsg = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return op
	}
	h := fnv.New64a()
	br.Reset(resp.Body)
	defer br.Reset(nil) // the idle reader keeps no reference to the body
	sawDone := false
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// A line longer than the buffer: gather the rest of it.
			rest, rerr := br.ReadBytes('\n')
			line, err = append(append([]byte(nil), line...), rest...), rerr
		}
		op.bytes += int64(len(line))
		if len(line) > 0 {
			if bytes.HasPrefix(line, matchPrefix) {
				if op.matches == 0 {
					op.firstMatch = time.Now()
				}
				op.matches++
				h.Write(line)
			} else if bytes.HasPrefix(line, donePrefix) && json.Unmarshal(line, &op.done) == nil {
				op.end = time.Now()
				sawDone = true
			}
		}
		if err != nil {
			break
		}
	}
	if op.end.IsZero() {
		op.end = time.Now()
	}
	op.streamHash = h.Sum64()
	switch {
	case !sawDone:
		op.outcome, op.errMsg = opFailed, "stream ended without a done event"
	case op.done.Status != "budget" && op.done.Status != "exhausted":
		op.outcome, op.errMsg = opFailed, fmt.Sprintf("done status %q: %s", op.done.Status, op.done.Error)
	}
	return op
}

// getJSON fetches path and decodes its JSON body into out.
func (w *world) getJSON(path string, out any) error {
	resp, err := w.client.Get(w.url(path))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body) // diagnostic only
		return fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postJSON sends body to path and decodes the reply into out, requiring
// status want.
func (w *world) postJSON(path string, body any, want int, out any) error {
	var rd io.Reader = http.NoBody
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	resp, err := w.client.Post(w.url(path), "application/json", rd)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body) // diagnostic only
		return fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
