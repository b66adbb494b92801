package jobs

import (
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/relm"
)

// Error classes the serving layer maps to HTTP statuses.
var (
	// ErrInvalid marks a submission defect (400).
	ErrInvalid = errors.New("jobs: invalid submission")
	// ErrUnknownModel marks a registry miss (404).
	ErrUnknownModel = errors.New("jobs: unknown model")
	// ErrQueueFull marks admission-control rejection (429).
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrNotFound marks an unknown job id (404).
	ErrNotFound = errors.New("jobs: no such job")
)

// Config sizes a Manager. Zero values take the listed defaults.
type Config struct {
	// Dir is where run ledgers live (required).
	Dir string
	// Env supplies the suites' datasets and worklists (required).
	Env *experiments.Env
	// MaxActive bounds jobs running concurrently (default 2).
	MaxActive int
	// MaxQueued bounds jobs awaiting dispatch; submissions beyond it are
	// rejected — admission control, not queueing to infinity (default 16).
	MaxQueued int
	// MaxWorkers caps any job's worker-pool width (default NumCPU).
	MaxWorkers int
	// ItemAttempts is the per-item execution budget under transient faults,
	// including the first attempt (default 8). An item that exhausts it — or
	// hits a permanent fault — is quarantined into the ledger rather than
	// failing the job. The default is sized for fault storms: at a 5%
	// per-dispatch fault rate an item making tens of device calls fails some
	// attempt fairly often, and a small budget would quarantine a visible
	// fraction of a healthy sweep.
	ItemAttempts int
}

func (c *Config) defaults() {
	if c.MaxActive <= 0 {
		c.MaxActive = 2
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 16
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.NumCPU()
	}
	if c.ItemAttempts <= 0 {
		c.ItemAttempts = 8
	}
}

// Manager owns the validation-job subsystem: a model registry, a priority
// scheduler with admission control, and one run ledger per job under
// Config.Dir.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	models   map[string]*relm.Model
	jobs     map[string]*Job
	queue    jobHeap
	active   int
	paused   bool
	reserved int             // admitted submissions not yet in the heap
	resuming map[string]bool // job ids with a Resume in flight
	nextID   int
	nextSeq  int64 // queue tiebreaker across submissions

	submitted   atomic.Int64
	completed   atomic.Int64
	failed      atomic.Int64
	cancelled   atomic.Int64
	resumed     atomic.Int64
	itemsDone   atomic.Int64
	retries     atomic.Int64
	quarantined atomic.Int64
}

// NewManager builds a manager, creating the ledger directory.
func NewManager(cfg Config) (*Manager, error) {
	cfg.defaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("jobs: Config.Dir is required")
	}
	if cfg.Env == nil {
		return nil, fmt.Errorf("jobs: Config.Env is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return &Manager{
		cfg:      cfg,
		models:   map[string]*relm.Model{},
		jobs:     map[string]*Job{},
		resuming: map[string]bool{},
	}, nil
}

// admit reserves a queue slot under admission control; the reservation is
// consumed by enqueue or returned by unadmit on an error path. Reserving
// (rather than checking twice) keeps MaxQueued a hard bound under
// concurrent submissions.
func (m *Manager) admit() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queue)+m.reserved >= m.cfg.MaxQueued {
		return fmt.Errorf("%w (%d queued)", ErrQueueFull, m.cfg.MaxQueued)
	}
	m.reserved++
	return nil
}

func (m *Manager) unadmit() {
	m.mu.Lock()
	m.reserved--
	m.mu.Unlock()
}

// RegisterModel adds a model to the registry under name.
func (m *Manager) RegisterModel(name string, model *relm.Model) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.models[name] = model
}

// lookupModel resolves a registry name; empty resolves iff exactly one
// model is registered (mirrors the server's rule).
func (m *Manager) lookupModel(name string) (*relm.Model, string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if name == "" {
		if len(m.models) == 1 {
			for n, mod := range m.models {
				return mod, n, nil
			}
		}
		return nil, "", fmt.Errorf("%w: model is required (registry has %d models)", ErrInvalid, len(m.models))
	}
	mod, ok := m.models[name]
	if !ok {
		return nil, "", fmt.Errorf("%w %q", ErrUnknownModel, name)
	}
	return mod, name, nil
}

// Job is one validation run: a sharded worklist bound to a suite, a model,
// and a ledger. All mutable state is guarded by mu; Wait blocks until the
// run reaches a terminal status.
type Job struct {
	ID      string
	Spec    Spec
	suite   Suite
	model   *relm.Model
	modelNm string
	ledger  *Ledger
	items   []Item
	shards  [][]int // shard -> item indices

	mu         sync.Mutex
	status     string
	errMsg     string
	doneShards map[int]bool
	results    map[int]ItemResult // item index -> result
	// quarantinedIdx marks poison items: their execution exhausted the
	// transient retry budget or hit a permanent fault, so they are recorded
	// in the ledger and skipped — kept out of results so the merged result
	// set stays byte-deterministic — instead of failing the whole sweep.
	quarantinedIdx map[int]bool
	okItems        int
	engine         engine.Stats
	resumes        int
	started        time.Time
	finished       time.Time

	kvStart   relm.KVStats
	planStart relm.PlanCacheStats
	// stageStart snapshots the model tracer's per-stage totals at dispatch;
	// the delta against the terminal snapshot is the job's stage breakdown.
	stageStart map[string]trace.StageTotal
	// kvEnd/planEnd/stageEnd freeze the shared-model counters at the
	// terminal transition so a finished job's attribution stops accumulating
	// other jobs' traffic on the same model.
	kvEnd    relm.KVStats
	planEnd  relm.PlanCacheStats
	stageEnd map[string]trace.StageTotal

	cancelCtx context.CancelFunc
	done      chan struct{}

	queueSeq int64 // submission order, the priority tiebreaker
	heapIdx  int

	appendedThisRun atomic.Int64
	retries         atomic.Int64 // transient-fault retries (items + ledger ops)
}

// ledger record payloads -------------------------------------------------

type headerData struct {
	JobID     string `json:"job_id"`
	Suite     string `json:"suite"`
	Model     string `json:"model"`
	ModelFP   string `json:"model_fp"`
	Spec      Spec   `json:"spec"`
	Items     int    `json:"items"`
	ItemsHash string `json:"items_hash"`
	Shards    int    `json:"shards"`
}

type itemData struct {
	Shard  int        `json:"shard"`
	Index  int        `json:"index"`
	Result ItemResult `json:"result"`
}

type shardDoneData struct {
	Shard int `json:"shard"`
	Items int `json:"items"`
}

type checkpointData struct {
	ShardsDone int `json:"shards_done"`
	ItemsDone  int `json:"items_done"`
}

type resumeData struct {
	Attempt    int `json:"attempt"`
	ShardsDone int `json:"shards_done"`
	ItemsDone  int `json:"items_done"`
}

type cancelData struct {
	Reason    string `json:"reason,omitempty"`
	ItemsDone int    `json:"items_done"`
}

type quarantineData struct {
	Shard    int    `json:"shard"`
	Index    int    `json:"index"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
}

type completeData struct {
	ItemsDone int          `json:"items_done"`
	OKItems   int          `json:"ok_items"`
	Engine    engine.Stats `json:"engine"`
	// Stages is the job's trace-stage breakdown (DESIGN.md decision 16),
	// durable in the ledger so `relm-audit report` can attribute a finished
	// sweep's time per pipeline stage.
	Stages map[string]StageDelta `json:"stages,omitempty"`
}

// itemsHash fingerprints the worklist so a resume against a different env
// (seed, scale, suite sizing) is refused instead of silently merging
// incomparable results.
func itemsHash(items []Item) string {
	h := sha256.New()
	for _, it := range items {
		fmt.Fprintf(h, "%d:%s|%d:%s|%d:%s\n",
			len(it.ID), it.ID, len(it.Prompt), it.Prompt, len(it.Target), it.Target)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// shardIndices splits n items into contiguous shards of size sz.
func shardIndices(n, sz int) [][]int {
	var shards [][]int
	for start := 0; start < n; start += sz {
		end := start + sz
		if end > n {
			end = n
		}
		idx := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			idx = append(idx, i)
		}
		shards = append(shards, idx)
	}
	return shards
}

// LedgerPath returns where a job's run ledger lives.
func (m *Manager) LedgerPath(id string) string {
	return filepath.Join(m.cfg.Dir, id+".jsonl")
}

// Submit validates a spec, writes the ledger header, and enqueues the job.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	spec = spec.withDefaults()
	if spec.Workers > m.cfg.MaxWorkers {
		return nil, fmt.Errorf("%w: workers must be <= %d, got %d", ErrInvalid, m.cfg.MaxWorkers, spec.Workers)
	}
	suite, err := NewSuite(m.cfg.Env, spec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	model, modelName, err := m.lookupModel(spec.Model)
	if err != nil {
		return nil, err
	}
	spec.Model = modelName
	items := suite.Items(spec.MaxItems)
	if len(items) == 0 {
		return nil, fmt.Errorf("%w: suite %q produced no items", ErrInvalid, spec.Suite)
	}
	seen := make(map[string]struct{}, len(items))
	for _, it := range items {
		// Result merging, resume dedup, and NDJSON streaming all key on
		// item IDs; a colliding worklist would silently drop results.
		if _, dup := seen[it.ID]; dup {
			return nil, fmt.Errorf("%w: suite %q produced duplicate item id %q", ErrInvalid, spec.Suite, it.ID)
		}
		seen[it.ID] = struct{}{}
	}

	if err := m.admit(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	var id string
	for {
		m.nextID++
		id = fmt.Sprintf("job-%04d", m.nextID)
		if _, err := os.Stat(m.LedgerPath(id)); os.IsNotExist(err) {
			break
		}
	}
	m.nextSeq++
	seq := m.nextSeq
	m.mu.Unlock()

	ledger, err := CreateLedger(m.LedgerPath(id))
	if err != nil {
		m.unadmit()
		return nil, err
	}
	j := &Job{
		ID:             id,
		Spec:           spec,
		suite:          suite,
		model:          model,
		modelNm:        modelName,
		ledger:         ledger,
		items:          items,
		shards:         shardIndices(len(items), spec.ShardSize),
		status:         StatusQueued,
		doneShards:     map[int]bool{},
		results:        map[int]ItemResult{},
		quarantinedIdx: map[int]bool{},
		done:           make(chan struct{}),
		queueSeq:       seq,
	}
	if _, err := ledger.Append(kindHeader, headerData{
		JobID:     id,
		Suite:     spec.Suite,
		Model:     modelName,
		ModelFP:   model.Fingerprint(),
		Spec:      spec,
		Items:     len(items),
		ItemsHash: itemsHash(items),
		Shards:    len(j.shards),
	}); err != nil {
		_ = ledger.Close() // the Append error already aborts the submit
		m.unadmit()
		return nil, err
	}
	m.submitted.Add(1)
	m.enqueue(j)
	return j, nil
}

// Resume replays a job's ledger and re-enqueues it, skipping every shard
// with a shard_done record and every item already recorded. The ledger's
// hash chain must verify, and the header's model fingerprint and item-list
// hash must match the manager's current model and env — resuming a run
// against a different world would merge incomparable results.
func (m *Manager) Resume(id string) (*Job, error) {
	// Serialize resumes per job id: two concurrent Resume calls would open
	// two append handles on one ledger and interleave records, permanently
	// breaking the hash chain. The resuming mark is held (and the queue
	// slot reserved) until the job is enqueued or the resume fails.
	m.mu.Lock()
	if m.resuming[id] {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: a resume of job %s is already in progress", ErrInvalid, id)
	}
	if existing, ok := m.jobs[id]; ok {
		existing.mu.Lock()
		st := existing.status
		existing.mu.Unlock()
		if st == StatusQueued || st == StatusRunning {
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: job %s is %s", ErrInvalid, id, st)
		}
	}
	if len(m.queue)+m.reserved >= m.cfg.MaxQueued {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d queued)", ErrQueueFull, m.cfg.MaxQueued)
	}
	m.reserved++
	m.resuming[id] = true
	m.mu.Unlock()
	release := func() {
		m.mu.Lock()
		m.reserved--
		delete(m.resuming, id)
		m.mu.Unlock()
	}

	ledger, recs, err := OpenLedger(m.LedgerPath(id))
	if err != nil {
		release()
		if os.IsNotExist(errors.Unwrap(err)) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return nil, err
	}
	// fail closes the ledger and returns the queue reservation on every
	// error path past this point.
	fail := func(err error) (*Job, error) {
		_ = ledger.Close() // resume already failed; the original error wins
		release()
		return nil, err
	}
	if len(recs) == 0 || recs[0].Kind != kindHeader {
		return fail(fmt.Errorf("%w: ledger for %s has no header", ErrInvalid, id))
	}
	var hdr headerData
	if err := decodeData(recs[0], &hdr); err != nil {
		return fail(err)
	}
	spec := hdr.Spec.withDefaults()
	// The kill switch belongs to the run that carried it, not the job: a
	// resume exists to finish the sweep, not to re-cancel it.
	spec.CancelAfterItems = 0
	// Unlike Submit, an over-wide Workers knob is clamped here rather than
	// rejected: a resume on a smaller machine than the submitter must not
	// fail, and pool width changes only execution speed, never results.
	if spec.Workers > m.cfg.MaxWorkers {
		spec.Workers = m.cfg.MaxWorkers
	}
	suite, err := NewSuite(m.cfg.Env, spec)
	if err != nil {
		return fail(fmt.Errorf("%w: %v", ErrInvalid, err))
	}
	model, modelName, err := m.lookupModel(hdr.Model)
	if err != nil {
		return fail(err)
	}
	if fp := model.Fingerprint(); fp != hdr.ModelFP {
		return fail(fmt.Errorf("%w: model %q fingerprint %.12s does not match ledger header %.12s",
			ErrInvalid, modelName, fp, hdr.ModelFP))
	}
	items := suite.Items(spec.MaxItems)
	if got := itemsHash(items); got != hdr.ItemsHash {
		return fail(fmt.Errorf("%w: item list hash %.12s does not match ledger header %.12s (env changed?)",
			ErrInvalid, got, hdr.ItemsHash))
	}

	j := &Job{
		ID:             id,
		Spec:           spec,
		suite:          suite,
		model:          model,
		modelNm:        modelName,
		ledger:         ledger,
		items:          items,
		shards:         shardIndices(len(items), spec.ShardSize),
		status:         StatusQueued,
		doneShards:     map[int]bool{},
		results:        map[int]ItemResult{},
		quarantinedIdx: map[int]bool{},
		done:           make(chan struct{}),
		resumes:        1,
	}
	for _, rec := range recs[1:] {
		switch rec.Kind {
		case kindItem:
			var d itemData
			if err := decodeData(rec, &d); err != nil {
				return fail(err)
			}
			if _, dup := j.results[d.Index]; !dup {
				j.results[d.Index] = d.Result
				if d.Result.OK {
					j.okItems++
				}
			}
		case kindShardDone:
			var d shardDoneData
			if err := decodeData(rec, &d); err != nil {
				return fail(err)
			}
			j.doneShards[d.Shard] = true
		case kindQuarantine:
			var d quarantineData
			if err := decodeData(rec, &d); err != nil {
				return fail(err)
			}
			// A past run already burned this item's budget; don't re-poison
			// the resumed run with it.
			j.quarantinedIdx[d.Index] = true
		case kindResume:
			j.resumes++
		}
	}
	m.mu.Lock()
	m.nextSeq++
	j.queueSeq = m.nextSeq
	m.mu.Unlock()

	if _, err := ledger.Append(kindResume, resumeData{
		Attempt:    j.resumes,
		ShardsDone: len(j.doneShards),
		ItemsDone:  len(j.results),
	}); err != nil {
		return fail(err)
	}

	m.resumed.Add(1)
	m.enqueue(j)
	return j, nil
}

// enqueue registers the job and kicks the dispatcher, consuming the
// admission reservation Submit/Resume took (and releasing any resume
// serialization mark).
func (m *Manager) enqueue(j *Job) {
	m.mu.Lock()
	m.reserved--
	delete(m.resuming, j.ID)
	m.jobs[j.ID] = j
	heap.Push(&m.queue, j)
	m.dispatchLocked()
	m.mu.Unlock()
}

// PauseDispatch stops starting queued jobs (running jobs continue) — the
// drain switch for maintenance windows. Submissions still validate, write
// their ledger header, and queue under admission control.
func (m *Manager) PauseDispatch() {
	m.mu.Lock()
	m.paused = true
	m.mu.Unlock()
}

// ResumeDispatch restarts the scheduler after PauseDispatch.
func (m *Manager) ResumeDispatch() {
	m.mu.Lock()
	m.paused = false
	m.dispatchLocked()
	m.mu.Unlock()
}

// dispatchLocked starts queued jobs while run slots are free. Caller holds
// m.mu.
func (m *Manager) dispatchLocked() {
	for !m.paused && m.active < m.cfg.MaxActive && len(m.queue) > 0 {
		j := heap.Pop(&m.queue).(*Job)
		j.mu.Lock()
		if j.status != StatusQueued { // cancelled while queued
			j.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		j.status = StatusRunning
		j.started = time.Now()
		j.cancelCtx = cancel
		j.kvStart = j.model.KVStats()
		j.planStart = j.model.PlanCacheStats()
		j.stageStart = j.model.Tracer().StageTotals()
		j.mu.Unlock()
		m.active++
		go m.runJob(j, ctx)
	}
}

// runJob executes every not-yet-done shard on a worker pool of sessions.
func (m *Manager) runJob(j *Job, ctx context.Context) {
	var wg sync.WaitGroup
	shardCh := make(chan int)
	var shardsThisRun atomic.Int64
	var appendErr atomic.Value // error

	// ledgerRetry runs a ledger operation under the transient-retry policy.
	// It deliberately ignores the job context: a kill arriving between an
	// item's computation and its append must not turn an already-paid result
	// into a lost one — the append either lands or exhausts its budget.
	ledgerRetry := func(op string, fn func() error) error {
		return fault.Backoff{
			Attempts: 5,
			Seed:     fault.SeedFrom(j.ID, op),
			OnRetry: func(int, error) {
				j.retries.Add(1)
				m.retries.Add(1)
			},
		}.Retry(context.Background(), fn)
	}

	recordItem := func(shard, index int, res ItemResult, st engine.Stats) bool {
		j.mu.Lock()
		if _, dup := j.results[index]; dup {
			j.engine.Add(st)
			j.mu.Unlock()
			return true
		}
		j.results[index] = res
		if res.OK {
			j.okItems++
		}
		j.engine.Add(st)
		j.mu.Unlock()
		if err := ledgerRetry("item", func() error {
			_, err := j.ledger.Append(kindItem, itemData{Shard: shard, Index: index, Result: res})
			return err
		}); err != nil {
			appendErr.Store(err)
			j.cancelCtx()
			return false
		}
		m.itemsDone.Add(1)
		n := j.appendedThisRun.Add(1)
		if j.Spec.CancelAfterItems > 0 && n >= int64(j.Spec.CancelAfterItems) {
			j.cancelCtx()
		}
		return true
	}

	// quarantine records a poison item and skips it: the sweep keeps its
	// other results instead of failing wholesale. Quarantined items stay out
	// of j.results so Results() remains byte-deterministic.
	quarantine := func(shard, index, attempts int, cause error) bool {
		j.mu.Lock()
		j.quarantinedIdx[index] = true
		j.mu.Unlock()
		m.quarantined.Add(1)
		if err := ledgerRetry("quarantine", func() error {
			_, err := j.ledger.Append(kindQuarantine, quarantineData{
				Shard: shard, Index: index, Attempts: attempts, Error: cause.Error(),
			})
			return err
		}); err != nil {
			appendErr.Store(err)
			j.cancelCtx()
			return false
		}
		return true
	}

	for w := 0; w < j.Spec.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := j.model.NewSession()
			defer sess.Close()
			// Under continuous batching, all of a job's shard workers share
			// one fair-share account so a wide job contends with interactive
			// queries as one principal, not Workers-many (DESIGN.md
			// decision 12). Jobs are batch work: no deadline priority.
			sess.SetQoS("job:"+j.ID, time.Time{})

			// runItem contains one execution attempt. Injected device faults
			// surface as *fault.Fault panics on the submitting goroutine;
			// they become classified errors here — the retry layer's food —
			// while any other panic keeps crashing loudly.
			runItem := func(idx int) (res ItemResult, st engine.Stats, err error) {
				defer func() {
					if p := recover(); p != nil {
						if f, ok := p.(*fault.Fault); ok {
							err = f
							return
						}
						panic(p)
					}
				}()
				return j.suite.Run(ctx, sess.Model, j.items[idx])
			}

			for si := range shardCh {
				if ctx.Err() != nil {
					continue // drain
				}
				for _, idx := range j.shards[si] {
					if ctx.Err() != nil {
						break
					}
					j.mu.Lock()
					_, have := j.results[idx]
					quarantined := j.quarantinedIdx[idx]
					j.mu.Unlock()
					if have || quarantined {
						continue // recorded (or poisoned) before a crash mid-shard
					}
					var res ItemResult
					var st engine.Stats
					attempts := 1
					idx := idx
					err := fault.Backoff{
						Attempts: m.cfg.ItemAttempts,
						Seed:     fault.SeedFrom(j.ID, strconv.Itoa(idx)),
						OnRetry: func(int, error) {
							attempts++
							j.retries.Add(1)
							m.retries.Add(1)
						},
					}.Retry(ctx, func() error {
						r, s, e := runItem(idx)
						if e != nil {
							return e
						}
						res, st = r, s
						return nil
					})
					if err != nil {
						if ctx.Err() != nil {
							// Cancelled mid-item: discard, the resume re-runs it.
							continue
						}
						if errors.Is(err, fault.ErrExhausted) || errors.Is(err, fault.ErrPermanent) {
							// Poison item: its budget is spent (or the fault
							// can never heal). Record and move on.
							if !quarantine(si, idx, attempts, err) {
								return
							}
							continue
						}
						// Unclassified (a suite error without a live
						// cancellation): discard, as before — the resume
						// re-runs it.
						continue
					}
					if !recordItem(si, idx, res, st) {
						return
					}
				}
				if ctx.Err() != nil {
					continue
				}
				if err := ledgerRetry("shard_done", func() error {
					_, err := j.ledger.Append(kindShardDone, shardDoneData{Shard: si, Items: len(j.shards[si])})
					return err
				}); err != nil {
					appendErr.Store(err)
					j.cancelCtx()
					return
				}
				j.mu.Lock()
				j.doneShards[si] = true
				shardsDone, itemsDone := len(j.doneShards), len(j.results)
				j.mu.Unlock()
				if n := shardsThisRun.Add(1); n%int64(j.Spec.CheckpointEvery) == 0 {
					if err := ledgerRetry("checkpoint", func() error {
						_, err := j.ledger.Append(kindCheckpoint, checkpointData{
							ShardsDone: shardsDone,
							ItemsDone:  itemsDone,
						})
						return err
					}); err != nil {
						appendErr.Store(err)
						j.cancelCtx()
						return
					}
					if err := ledgerRetry("sync", j.ledger.Sync); err != nil {
						appendErr.Store(err)
						j.cancelCtx()
						return
					}
				}
			}
		}()
	}

feed:
	for si := range j.shards {
		j.mu.Lock()
		skip := j.doneShards[si]
		j.mu.Unlock()
		if skip {
			continue
		}
		select {
		case shardCh <- si:
		case <-ctx.Done():
			break feed
		}
	}
	close(shardCh)
	wg.Wait()

	// Terminal transition.
	j.mu.Lock()
	itemsDone, okItems, es := len(j.results), j.okItems, j.engine
	stageStart := j.stageStart
	j.mu.Unlock()
	endStages := j.model.Tracer().StageTotals()
	var status, errMsg string
	if err, _ := appendErr.Load().(error); err != nil {
		status, errMsg = StatusFailed, err.Error()
	} else if ctx.Err() != nil {
		status, errMsg = StatusCancelled, "cancelled"
		_, _ = j.ledger.Append(kindCancel, cancelData{Reason: errMsg, ItemsDone: itemsDone})
	} else {
		status = StatusCompleted
		if err := ledgerRetry("complete", func() error {
			_, err := j.ledger.Append(kindComplete, completeData{
				ItemsDone: itemsDone, OKItems: okItems, Engine: es,
				Stages: stageDelta(stageStart, endStages),
			})
			return err
		}); err != nil {
			status, errMsg = StatusFailed, err.Error()
		} else if err := ledgerRetry("final_sync", j.ledger.Sync); err != nil {
			status, errMsg = StatusFailed, err.Error()
		}
	}
	// A failed Close means buffered terminal records may never have reached
	// the file: Verify would see a truncated chain. Don't report the run as
	// completed when its ledger is not durable.
	if err := j.ledger.Close(); err != nil && status == StatusCompleted {
		status, errMsg = StatusFailed, fmt.Sprintf("ledger close: %v", err)
	}
	j.cancelCtx() // release the context's resources on every path

	j.mu.Lock()
	j.status = status
	j.errMsg = errMsg
	j.finished = time.Now()
	j.kvEnd = j.model.KVStats()
	j.planEnd = j.model.PlanCacheStats()
	j.stageEnd = endStages
	j.mu.Unlock()
	close(j.done)

	switch status {
	case StatusCompleted:
		m.completed.Add(1)
	case StatusFailed:
		m.failed.Add(1)
	case StatusCancelled:
		m.cancelled.Add(1)
	}
	m.mu.Lock()
	m.active--
	m.dispatchLocked()
	m.mu.Unlock()
}

// Drain checkpoints the subsystem for shutdown: dispatch pauses, every
// queued and running job is cancelled (a cancel record is a checkpoint — the
// job resumes from it later), and Drain waits for each to reach a terminal
// status or for ctx to expire. Work already recorded in the ledgers is
// preserved either way; an expired ctx only means some job goroutine was
// still unwinding when the deadline hit.
func (m *Manager) Drain(ctx context.Context) error {
	m.PauseDispatch()
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		switch j.Status() {
		case StatusQueued, StatusRunning:
			_ = m.Cancel(j.ID) // terminal races are fine: done closes either way
		}
	}
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-ctx.Done():
			return fmt.Errorf("jobs: drain: %w", ctx.Err())
		}
	}
	return nil
}

// Cancel stops a running job (its context cancels between items) or
// retires a queued one, releasing its admission slot immediately.
func (m *Manager) Cancel(id string) error {
	// m.mu is held across the whole queued-path transition so the heap
	// removal and the status flip are atomic with respect to dispatch
	// (lock order m.mu → j.mu matches dispatchLocked).
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	j.mu.Lock()
	switch j.status {
	case StatusRunning:
		cancel := j.cancelCtx
		j.mu.Unlock()
		m.mu.Unlock()
		cancel()
		return nil
	case StatusQueued:
		// Remove from the dispatch heap now — leaving it to be skipped at
		// pop time would keep consuming a MaxQueued admission slot.
		if j.heapIdx < len(m.queue) && m.queue[j.heapIdx] == j {
			heap.Remove(&m.queue, j.heapIdx)
		}
		j.status = StatusCancelled
		j.errMsg = "cancelled while queued"
		j.finished = time.Now()
		_, _ = j.ledger.Append(kindCancel, cancelData{Reason: j.errMsg, ItemsDone: len(j.results)})
		_ = j.ledger.Close() // job is cancelled either way; Verify tolerates a missing cancel record
		j.mu.Unlock()
		m.mu.Unlock()
		close(j.done)
		m.cancelled.Add(1)
		return nil
	default:
		st := j.status
		j.mu.Unlock()
		m.mu.Unlock()
		return fmt.Errorf("%w: job %s is %s", ErrInvalid, id, st)
	}
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List snapshots every known job, newest first.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID > jobs[k].ID })
	out := make([]Snapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	return out
}

// Stats aggregates the /v1/stats jobs block.
func (m *Manager) Stats() ManagerStats {
	st := ManagerStats{
		Submitted:   m.submitted.Load(),
		Completed:   m.completed.Load(),
		Failed:      m.failed.Load(),
		Cancelled:   m.cancelled.Load(),
		Resumed:     m.resumed.Load(),
		ItemsDone:   m.itemsDone.Load(),
		Retries:     m.retries.Load(),
		Quarantined: m.quarantined.Load(),
	}
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		switch j.status {
		case StatusQueued:
			st.Queued++
		case StatusRunning:
			st.Running++
		}
		j.mu.Unlock()
		st.LedgerBytes += j.ledger.Bytes()
	}
	return st
}

// Wait blocks until the job reaches a terminal status.
func (j *Job) Wait() { <-j.done }

// Status returns the job's current status string.
func (j *Job) Status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// EngineStats returns the engine work this job (this run of it) performed.
func (j *Job) EngineStats() engine.Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.engine
}

// Results returns the merged per-item results in worklist order: replayed
// records first-wins, live records appended as shards finish. For a
// completed job this is the full, deterministic result set of the sweep.
func (j *Job) Results() []ItemResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]ItemResult, 0, len(j.results))
	for i := range j.items {
		if r, ok := j.results[i]; ok {
			out = append(out, r)
		}
	}
	return out
}

// Snapshot captures the job's externally visible state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := Snapshot{
		ID:       j.ID,
		Suite:    j.Spec.Suite,
		Model:    j.modelNm,
		Status:   j.status,
		Error:    j.errMsg,
		Priority: j.Spec.Priority,
		Resumes:  j.resumes,
		Progress: Progress{
			Items:      len(j.items),
			ItemsDone:  len(j.results),
			Shards:     len(j.shards),
			ShardsDone: len(j.doneShards),
			OKItems:    j.okItems,
		},
		Engine:      j.engine,
		LedgerBytes: j.ledger.Bytes(),
		Retries:     j.retries.Load(),
		Quarantined: len(j.quarantinedIdx),
	}
	if !j.started.IsZero() {
		end := j.finished
		kv, plan, stages := j.kvEnd, j.planEnd, j.stageEnd
		if end.IsZero() { // still running: live counters
			end = time.Now()
			kv, plan = j.model.KVStats(), j.model.PlanCacheStats()
			stages = j.model.Tracer().StageTotals()
		}
		snap.DurationMS = end.Sub(j.started).Milliseconds()
		snap.KVHits = kv.Hits - j.kvStart.Hits
		snap.KVMisses = kv.Misses - j.kvStart.Misses
		snap.PlanHits = plan.Hits - j.planStart.Hits
		snap.PlanMisses = plan.Misses - j.planStart.Misses
		snap.Stages = stageDelta(j.stageStart, stages)
	}
	return snap
}

// jobHeap orders queued jobs by priority (higher first), then submission
// order.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, k int) bool {
	if h[i].Spec.Priority != h[k].Spec.Priority {
		return h[i].Spec.Priority > h[k].Spec.Priority
	}
	return h[i].queueSeq < h[k].queueSeq
}
func (h jobHeap) Swap(i, k int) {
	h[i], h[k] = h[k], h[i]
	h[i].heapIdx = i
	h[k].heapIdx = k
}
func (h *jobHeap) Push(x interface{}) {
	j := x.(*Job)
	j.heapIdx = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() interface{} {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
