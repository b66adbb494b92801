package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/tokenizer"
	"repro/relm"
)

// serveFlags is the subset of relm-serve's flags the benchmark's models and
// server are built from. serveDefaults must equal relm-serve's shipped
// defaults: TestServeParity compares it with `relm-serve -h`, so the
// benchmark measures what operators run.
type serveFlags struct {
	Parallelism   int           // -parallelism
	Fusion        bool          // -fusion
	FusionWindow  time.Duration // -fusion-window
	KVBudget      int64         // -kv-budget
	KVCompression string        // -kv-compression
	Cache         int           // -cache
	MaxConcurrent int           // -max-concurrent
	TraceSampling float64       // -trace-sampling
}

var serveDefaults = serveFlags{
	Parallelism:   runtime.NumCPU(),
	Fusion:        true,
	FusionWindow:  0,
	KVBudget:      0,
	KVCompression: "lossless",
	Cache:         8192,
	MaxConcurrent: 4,
	TraceSampling: 1.0,
}

// modelOptions builds the relm.ModelOptions relm-serve derives from the
// same flags.
func (f serveFlags) modelOptions(pool *device.Pool) (relm.ModelOptions, error) {
	kv, err := relm.ParseKVCompression(f.KVCompression)
	if err != nil {
		return relm.ModelOptions{}, err
	}
	return relm.ModelOptions{
		CacheSize:          f.Cache,
		Pool:               pool,
		KVBudgetBytes:      f.KVBudget,
		KVCompression:      kv,
		ContinuousBatching: f.Fusion,
		FusionWindow:       f.FusionWindow,
		TraceSampling:      f.TraceSampling,
	}, nil
}

// world is one running system under test: an in-process relm-serve on a
// loopback listener, its models, and (audit only) a jobs.Manager over a
// temporary ledger directory.
type world struct {
	pool   *device.Pool
	names  []string // registered model names, sorted
	models map[string]*relm.Model
	raw    map[string]model.LanguageModel // the unwrapped LMs, for fresh-model compiles and replays
	tok    *tokenizer.BPE
	env    *experiments.Env
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client

	mgr       *jobs.Manager
	ledgerDir string
}

// buildWorld trains or builds the workload's models and starts the server.
// wrap, when non-nil, wraps every model the server runs.
func buildWorld(wl string, flags serveFlags, wrap lmWrapper, workDir string) (*world, error) {
	w := &world{raw: map[string]model.LanguageModel{}}
	switch wl {
	case serveOpen, audit:
		w.env = experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick})
		w.tok = w.env.Tok
		w.raw["large"] = w.env.Large.LM
		w.raw["small"] = w.env.Small.LM
	case kvDeep:
		w.tok, w.raw["kv"] = trainKVModel()
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	if err := w.start(flags, wrap, wl == audit, workDir); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// refWorld starts a reference server over w's trained models in which the
// model computes every row: direct dispatch, no logit cache, no KV arena,
// no tracing. Replays on it are what w's streams must equal (DESIGN.md
// decisions 10 and 12).
func refWorld(w *world, workDir string) (*world, error) {
	flags := serveDefaults
	flags.Fusion = false
	flags.Cache = -1
	flags.KVBudget = -1
	flags.TraceSampling = -1
	ref := &world{raw: w.raw, tok: w.tok, env: w.env}
	if err := ref.start(flags, nil, false, workDir); err != nil {
		ref.close()
		return nil, err
	}
	return ref, nil
}

// lmWrapper wraps a model the server runs: timing it, or planting a fault.
type lmWrapper func(model.LanguageModel) (model.LanguageModel, error)

// start builds w's relm models from its raw ones and starts the server,
// with a jobs.Manager over a temporary ledger directory when withJobs.
func (w *world) start(flags serveFlags, wrap lmWrapper, withJobs bool, workDir string) error {
	w.models = map[string]*relm.Model{}
	w.pool = device.NewPool(flags.Parallelism)
	opts, err := flags.modelOptions(w.pool)
	if err != nil {
		return err
	}
	w.srv = server.New(server.Config{MaxConcurrent: flags.MaxConcurrent})
	if withJobs {
		if w.ledgerDir, err = os.MkdirTemp(workDir, "ledgers-"); err != nil {
			return err
		}
		if w.mgr, err = jobs.NewManager(jobs.Config{Dir: w.ledgerDir, Env: w.env}); err != nil {
			return err
		}
		w.srv.EnableJobs(w.mgr)
	}
	for name, lm := range w.raw {
		w.names = append(w.names, name)
		if wrap != nil {
			if lm, err = wrap(lm); err != nil {
				return err
			}
		}
		m := relm.NewModel(lm, w.tok, opts)
		w.models[name] = m
		w.srv.AddModel(name, m)
	}
	sort.Strings(w.names)

	w.ts = httptest.NewServer(w.srv)
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
	return nil
}

// maxConns is the load generator's connection limit: one per CPU.
var maxConns = runtime.NumCPU()

// close stops the server and every goroutine the world started.
func (w *world) close() {
	if w.ts != nil {
		w.ts.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = w.mgr.Drain(ctx) // every job has ended; a timeout only leaves files behind
		cancel()
	}
	for _, m := range w.models {
		m.Close()
	}
	if w.pool != nil {
		w.pool.Close()
	}
	if w.ledgerDir != "" {
		_ = os.RemoveAll(w.ledgerDir) // scratch space inside the work directory
	}
}

func (w *world) url(path string) string { return w.ts.URL + path }

// kvTrainedIDs are the ids the kv-deep transformer memorizes, the same
// depth-32 digit strings the repo's KV-compression gate trains on.
var kvTrainedIDs = []string{
	"id 12345678901234567890123456789012",
	"id 98765432109876543210987654321098",
	"id 31415926535897932384626433832795",
	"id 27182818284590452353602874713526",
}

// trainKVModel trains the kv-deep substrate: a byte-level tokenizer (every
// digit is one token, so each id prefix is 35 tokens) and a small
// transformer that has memorized kvTrainedIDs.
func trainKVModel() (*tokenizer.BPE, model.LanguageModel) {
	lines := []string{"the quick brown fox jumps over the lazy dog"}
	for _, id := range kvTrainedIDs {
		for i := 0; i < 6; i++ {
			lines = append(lines, id)
		}
	}
	tok := tokenizer.Train(lines, 0)
	lm := model.TrainTransformer(lines, tok, model.TransformerConfig{
		DModel: 32, NHeads: 2, NLayers: 2, MaxSeqLen: 48, Epochs: 4, Seed: 5,
	})
	return tok, lm
}

// counters is one snapshot of every model's shared counter families plus
// the Go runtime's, so a phase's activity is the difference of two.
type counters struct {
	clock, busy                    time.Duration
	batches, sequences, tokens     int64
	planHits, planMisses           int64
	compile                        time.Duration
	cacheHits, cacheMiss, flights  int64
	kv                             relm.KVStats
	fused, fusedRows, multi, flush int64
	rt                             runtimeSnap
}

func (w *world) snapshot() counters {
	var c counters
	for _, name := range w.names {
		m := w.models[name]
		ds := m.Dev.Stats()
		c.clock += ds.Clock
		c.busy += ds.Busy
		c.batches += ds.Batches
		c.sequences += ds.Sequences
		c.tokens += ds.Tokens
		ps := m.PlanCacheStats()
		c.planHits += ps.Hits
		c.planMisses += ps.Misses
		c.compile += ps.CompileTime
		if lc := m.Cache(); lc != nil {
			h, mi := lc.Stats()
			c.cacheHits += h
			c.cacheMiss += mi
			c.flights += lc.FlightStats()
		}
		ks := m.KVStats()
		c.kv.Hits += ks.Hits
		c.kv.Misses += ks.Misses
		c.kv.Evictions += ks.Evictions
		c.kv.Demotions += ks.Demotions
		c.kv.Promotions += ks.Promotions
		c.kv.ResidentBytes += ks.ResidentBytes
		bs := m.BatcherStats()
		c.fused += bs.FusedBatches
		c.fusedRows += bs.Rows
		c.multi += bs.MultiQueryBatches
		c.flush += bs.WindowFlushes
	}
	c.rt = readRuntime()
	return c
}

// sub returns the activity between snapshot o and c. Resident KV bytes are
// a level, not a counter, so c's value is kept.
func (c counters) sub(o counters) counters {
	d := counters{
		clock: c.clock - o.clock, busy: c.busy - o.busy,
		batches: c.batches - o.batches, sequences: c.sequences - o.sequences, tokens: c.tokens - o.tokens,
		planHits: c.planHits - o.planHits, planMisses: c.planMisses - o.planMisses, compile: c.compile - o.compile,
		cacheHits: c.cacheHits - o.cacheHits, cacheMiss: c.cacheMiss - o.cacheMiss, flights: c.flights - o.flights,
		fused: c.fused - o.fused, fusedRows: c.fusedRows - o.fusedRows, multi: c.multi - o.multi, flush: c.flush - o.flush,
		rt: runtimeSnap{
			allocBytes: c.rt.allocBytes - o.rt.allocBytes,
			gcCPU:      c.rt.gcCPU - o.rt.gcCPU,
			totalCPU:   c.rt.totalCPU - o.rt.totalCPU,
		},
	}
	d.kv = relm.KVStats{
		Hits: c.kv.Hits - o.kv.Hits, Misses: c.kv.Misses - o.kv.Misses,
		Evictions: c.kv.Evictions - o.kv.Evictions, Demotions: c.kv.Demotions - o.kv.Demotions,
		Promotions: c.kv.Promotions - o.kv.Promotions, ResidentBytes: c.kv.ResidentBytes,
	}
	return d
}

// callRecorder times every call into the wrapped models while on. The
// wrapper sits under the logit cache, so it sees exactly the forwards the
// model computes.
type callRecorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	calls []modelCall
}

// modelCall is one timed call into a model: its wall interval and the
// number of next-token rows it produced.
type modelCall struct {
	start, end time.Time
	rows       int
}

func (r *callRecorder) record(start time.Time, rows int) {
	if !r.on.Load() {
		return
	}
	end := time.Now()
	r.mu.Lock()
	r.calls = append(r.calls, modelCall{start: start, end: end, rows: rows})
	r.mu.Unlock()
}

// take returns and clears the recorded calls.
func (r *callRecorder) take() []modelCall {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.calls
	r.calls = nil
	return out
}

// wrap returns a timed view of lm that implements exactly the optional
// interfaces lm does, so incremental decoding, all-position scoring and
// the KV arena stay on the paths they take unwrapped.
func (r *callRecorder) wrap(lm model.LanguageModel) (model.LanguageModel, error) {
	_, inc := lm.(model.Incremental)
	_, all := lm.(model.AllPositions)
	_, ps := lm.(model.PrefixStateful)
	base := &timedLM{inner: lm, rec: r}
	switch {
	case !inc && !all && !ps:
		return base, nil
	case inc && all && ps:
		return &timedStatefulLM{timedLM: base}, nil
	default:
		return nil, fmt.Errorf("model %T implements an unsupported subset of the optional interfaces", lm)
	}
}

// skewRows wraps an incremental model so every row its ExtendBatch step
// returns is shifted: a wrong incremental path whose rows still reach the
// shared logit cache, planted to prove the kv-deep check catches it.
func skewRows(lm model.LanguageModel) (model.LanguageModel, error) {
	if _, ok := lm.(model.Incremental); !ok {
		return nil, fmt.Errorf("model %T is not incremental", lm)
	}
	return skewedLM{lm}, nil
}

type skewedLM struct{ model.LanguageModel }

func (s skewedLM) HasPrefixStates() bool { return model.HasPrefixStates(s.LanguageModel) }

func (s skewedLM) Prefill(ctx []model.Token) (model.DecodeState, []float64) {
	return s.LanguageModel.(model.Incremental).Prefill(ctx)
}

func (s skewedLM) ScoreAllPositions(seq []model.Token) [][]float64 {
	return s.LanguageModel.(model.AllPositions).ScoreAllPositions(seq)
}

func (s skewedLM) ExtendBatch(states []model.DecodeState, tokens []model.Token) ([]model.DecodeState, [][]float64) {
	out, rows := s.LanguageModel.(model.Incremental).ExtendBatch(states, tokens)
	skewed := make([][]float64, len(rows))
	for i, row := range rows {
		skewed[i] = make([]float64, len(row))
		for k, lp := range row {
			skewed[i][k] = lp - 0.25
		}
	}
	return out, skewed
}

type timedLM struct {
	inner model.LanguageModel
	rec   *callRecorder
}

func (t *timedLM) VocabSize() int        { return t.inner.VocabSize() }
func (t *timedLM) EOS() model.Token      { return t.inner.EOS() }
func (t *timedLM) MaxSeqLen() int        { return t.inner.MaxSeqLen() }
func (t *timedLM) HasPrefixStates() bool { return model.HasPrefixStates(t.inner) }

func (t *timedLM) NextLogProbs(ctx []model.Token) []float64 {
	start := time.Now()
	out := t.inner.NextLogProbs(ctx)
	t.rec.record(start, 1)
	return out
}

func (t *timedLM) ScoreBatch(ctxs [][]model.Token) [][]float64 {
	start := time.Now()
	out := t.inner.ScoreBatch(ctxs)
	t.rec.record(start, len(ctxs))
	return out
}

// timedStatefulLM adds the incremental, all-positions and prefix-state
// interfaces for models (the transformer) that implement all three.
type timedStatefulLM struct{ *timedLM }

func (t *timedStatefulLM) Prefill(ctx []model.Token) (model.DecodeState, []float64) {
	start := time.Now()
	st, lp := t.inner.(model.Incremental).Prefill(ctx)
	t.rec.record(start, 1)
	return st, lp
}

func (t *timedStatefulLM) ExtendBatch(states []model.DecodeState, tokens []model.Token) ([]model.DecodeState, [][]float64) {
	start := time.Now()
	out, rows := t.inner.(model.Incremental).ExtendBatch(states, tokens)
	t.rec.record(start, len(states))
	return out, rows
}

func (t *timedStatefulLM) ScoreAllPositions(seq []model.Token) [][]float64 {
	start := time.Now()
	out := t.inner.(model.AllPositions).ScoreAllPositions(seq)
	t.rec.record(start, len(seq))
	return out
}
