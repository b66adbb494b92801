// Command relmbench is the repository's end-to-end benchmark. It drives an
// in-process relm-serve (server.New on an httptest loopback listener) whose
// models are built from relm-serve's shipped defaults, and for the audit
// workload a jobs.Manager over a temporary ledger directory, from one
// process with at most nproc connections.
//
// Usage, from the repository root:
//
//	bash relmbench/run.sh --workload serve-open --seed 1 --seconds 25 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	serve-open  open loop of POST /v1/search over the four §4 query families
//	kv-deep     closed loop of incremental deep-prefix memorization probes
//	audit       the §4 suites as durable jobs, one cancelled and resumed,
//	            every ledger verified and reported
//
// With --trace 0 the last stdout line is the end-to-end metrics; with
// --trace 1 it is the per-layer metrics of a separate traced phase, and a
// Chrome trace-event file of every span is written under --workdir. Every
// run checks the program's outputs (see check in run.go); the result's
// "correct" is false when any check fails. The line before it records the
// seed and the ops sent, succeeded, refused and failed.
//
// Every workload prints every end-to-end metric. An op is one search
// request on serve-open and kv-deep and one suite item on audit; the per-op
// metrics (vdev_ms_per_op, alloc_kb_per_op) and the rates divide by ops.
// Where the natural unit differs on audit:
//
//	ttfm_*         per item: the item's search time from the program's own
//	               trace (the search stops at its first match)
//	latency_*      per suite job, submit to completion (median over rounds)
//	*_per_s        per round, median over rounds
//	audit_wall_s   one round, first submit to last report; elsewhere the
//	               measured phase
//	slo_ok_frac    items scored without error; elsewhere requests that
//	               succeeded with time to first match within ttfmLimit
//
// items_per_s counts successful ops and queries_per_s finished ones, so the
// two agree when nothing fails. alloc_kb_per_op and heap_peak_mb are read
// from the Go runtime of this one process, so they include the in-process
// load generator (one reused read buffer per connection; only the done
// line of each stream is decoded).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// Workload names.
const (
	serveOpen = "serve-open"
	kvDeep    = "kv-deep"
	audit     = "audit"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times the world is built; setup_s is the median.
	setups  int
	workDir string
	// Sizes the smoke test shrinks: kv-deep's id count and each audit
	// suite's item cap (0: full worklists).
	kvIDs      int
	auditItems int
	// plantMismatch corrupts one recorded output before the checks, and
	// plantRows (kv-deep) skews every row the model's incremental step
	// returns, so the logit cache holds wrong rows: each proves the checks
	// catch a mismatch.
	plantMismatch, plantRows bool
	log                      io.Writer
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{log: os.Stderr}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", serveOpen, "workload: serve-open, kv-deep or audit")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: draws requests, items, ids and arrival times")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of each measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "1: print per-layer metrics from a separate traced phase")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build/relmbench", "scratch directory for ledgers and the trace file")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.setups = 7
	cfg.kvIDs = kvIDCount

	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fatal(err)
	}
	res, summary, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Println(summary)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "relmbench:", err)
	os.Exit(1)
}
