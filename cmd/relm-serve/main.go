// Command relm-serve runs the ReLM query service: it loads one or more
// models into a shared registry and serves streaming regex queries over
// HTTP — the operable form of the ROADMAP's "serve heavy traffic" north
// star (DESIGN.md decision 8).
//
// Usage:
//
//	relm-serve                                   # synthetic quick-scale models "large" and "small"
//	relm-serve -model prod=./artifacts           # artifacts from relm-train, named "prod"
//	relm-serve -addr :8080 -max-concurrent 8 -parallelism 4
//
// Endpoints:
//
//	POST /v1/search   {"model":"small","pattern":" ((cat)|(dog))","prefix":"The","max_matches":5}
//	GET  /v1/stats
//	GET  /v1/models
//	GET  /v1/trace        recent trace summaries; /v1/trace/{id} for span trees
//	GET  /metrics         Prometheus text exposition
//	GET  /healthz
//	/v1/jobs...       durable validation jobs (submit/list/watch/cancel/
//	                  resume/results) when -jobs-dir is set; see
//	                  cmd/relm-audit for the client
//
// Matches stream back incrementally as NDJSON (default) or SSE when the
// request sends Accept: text/event-stream. Every query runs under a
// deadline and an admission limit; a dropped connection cancels its
// traversal. All models share one persistent scoring pool and each model's
// queries share one logit cache with per-query hit attribution in
// /v1/stats.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/relm"
)

// modelFlags collects repeated -model name=dir values.
type modelFlags []string

func (m *modelFlags) String() string { return strings.Join(*m, ",") }
func (m *modelFlags) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	var models modelFlags
	flag.Var(&models, "model", "name=dir pair loading relm-train artifacts (repeatable); default: synthetic quick-scale models \"large\" and \"small\"")
	maxConcurrent := flag.Int("max-concurrent", 4, "admission limit: queries in flight before 429")
	maxMatches := flag.Int("max-matches", 1000, "hard cap on any query's match budget")
	defaultMatches := flag.Int("default-matches", 10, "match budget when a request omits max_matches")
	maxDeadline := flag.Duration("max-deadline", 30*time.Second, "hard cap on any query's deadline")
	defaultDeadline := flag.Duration("default-deadline", 10*time.Second, "deadline when a request omits deadline_ms")
	cacheSize := flag.Int("cache", 8192, "shared logit cache entries per model (negative disables)")
	batch := flag.Int("batch", 0, "device batch limit per model (0 = default 64)")
	par := flag.Int("parallelism", runtime.NumCPU(), "persistent scoring-pool width shared by all models (>= 1)")
	kvBudget := flag.Int64("kv-budget", 0, "prefix-state arena byte budget per model (0 = default 64 MiB, negative disables incremental decoding)")
	kvCompression := flag.String("kv-compression", "lossless", "KV-arena tiered compression: off, lossless (byte-identical results), or aggressive (2-byte rows, approximate)")
	fusion := flag.Bool("fusion", true, "continuous cross-query batching: fuse scoring calls from all in-flight queries into shared device batches")
	fusionWindow := flag.Duration("fusion-window", 0, "fusion admission window (0 = default 200µs); it applies only while some live query has no scoring call waiting — once every live query is waiting the batch flushes at once")
	jobsDir := flag.String("jobs-dir", "", "run-ledger directory; enables the /v1/jobs validation-job API")
	jobsActive := flag.Int("jobs-active", 2, "validation jobs running concurrently")
	jobsQueued := flag.Int("jobs-queued", 16, "validation-job queue depth before submissions get 429")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget after SIGTERM/SIGINT: finish in-flight streams, checkpoint jobs, close ledgers")
	traceSampling := flag.Float64("trace-sampling", 1.0, "fraction of queries recorded as span-tree traces (served at /v1/trace; negative disables tracing)")
	traceRing := flag.Int("trace-ring", 0, "finished traces retained per model (0 = default 256)")
	traceDir := flag.String("trace-dir", "", "directory to dump each model's retained traces as Chrome trace-event JSON on shutdown (load in chrome://tracing or Perfetto)")
	chaos := flag.String("chaos", "", "fault-injection scenario, e.g. 'device.forward=p0.05,ledger.sync=n1' (empty = off; see internal/fault)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for deterministic chaos decisions")
	flag.Parse()

	if *chaos != "" {
		in, err := fault.ParseScenario(*chaos, *chaosSeed)
		if err != nil {
			fatal(err)
		}
		fault.Enable(in)
		fmt.Printf("chaos armed: %s (seed %d)\n", *chaos, *chaosSeed)
	}

	if err := engine.ValidateBatch(*batch); err != nil {
		fatal(err)
	}
	if err := engine.ValidateParallelism(*par); err != nil {
		fatal(err)
	}

	kvMode, err := relm.ParseKVCompression(*kvCompression)
	if err != nil {
		fatal(err)
	}

	pool := device.NewPool(*par)
	defer pool.Close()
	opts := relm.ModelOptions{
		MaxBatch:           *batch,
		CacheSize:          *cacheSize,
		Pool:               pool,
		KVBudgetBytes:      *kvBudget,
		KVCompression:      kvMode,
		ContinuousBatching: *fusion,
		FusionWindow:       *fusionWindow,
		TraceSampling:      *traceSampling,
		TraceRing:          *traceRing,
	}

	srv := server.New(server.Config{
		MaxConcurrent:   *maxConcurrent,
		MaxMatches:      *maxMatches,
		DefaultMatches:  *defaultMatches,
		MaxDeadline:     *maxDeadline,
		DefaultDeadline: *defaultDeadline,
	})

	// The synthetic world backs both the default model registry and the
	// validation-job suites' datasets (worklists come from the env even
	// when the models under test are artifact-loaded).
	var env *experiments.Env
	if len(models) == 0 || *jobsDir != "" {
		fmt.Println("training the synthetic world (quick scale)...")
		env = experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick})
	}
	if *jobsDir != "" {
		mgr, err := jobs.NewManager(jobs.Config{
			Dir:       *jobsDir,
			Env:       env,
			MaxActive: *jobsActive,
			MaxQueued: *jobsQueued,
		})
		if err != nil {
			fatal(err)
		}
		srv.EnableJobs(mgr)
		fmt.Printf("validation-job API enabled (ledgers in %s)\n", *jobsDir)
	}
	// registry mirrors the server's model table for the shutdown trace dump.
	registry := map[string]*relm.Model{}
	addModel := func(name string, m *relm.Model) {
		srv.AddModel(name, m)
		registry[name] = m
	}
	if len(models) == 0 {
		// Rebuild through NewModel so the registry entries share the pool
		// and carry the serve-time cache/batch settings.
		addModel("large", relm.NewModel(env.Large.LM, env.Tok, opts))
		addModel("small", relm.NewModel(env.Small.LM, env.Tok, opts))
		fmt.Println("registered models: large, small")
	}
	for _, spec := range models {
		name, dir, ok := strings.Cut(spec, "=")
		if !ok || name == "" || dir == "" {
			fatal(fmt.Errorf("bad -model %q, want name=dir", spec))
		}
		m, arch, err := relm.LoadArtifacts(dir, opts)
		if err != nil {
			fatal(fmt.Errorf("load %s: %w", name, err))
		}
		addModel(name, m)
		fmt.Printf("registered %s model %q from %s\n", arch, name, dir)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("relm-serve listening on %s (max %d concurrent queries, pool width %d, fusion %v)\n",
		*addr, *maxConcurrent, *par, *fusion)
	if err := srv.Serve(ln, stop, *drainTimeout); err != nil {
		fatal(err)
	}
	if *traceDir != "" {
		if err := dumpTraces(*traceDir, registry); err != nil {
			fatal(err)
		}
	}
	fmt.Println("relm-serve drained cleanly")
}

// dumpTraces writes each model's retained traces as one Chrome trace-event
// JSON file per model under dir.
func dumpTraces(dir string, registry map[string]*relm.Model) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		data := registry[name].Tracer().Recent(0)
		if len(data) == 0 {
			continue
		}
		path := filepath.Join(dir, name+".trace.json")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		werr := trace.WriteChrome(f, data)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("trace dump %s: %w", path, werr)
		}
		fmt.Printf("wrote %s (%d traces)\n", path, len(data))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "relm-serve:", err)
	os.Exit(1)
}
