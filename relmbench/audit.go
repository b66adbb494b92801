package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/jobs"
)

// audit: one client runs the §4 validation suites through POST /v1/jobs,
// one after another, with workers = nproc. In each round one suite is
// cancelled with cancel_after_items and resumed; afterwards every ledger is
// verified and reported with jobs.VerifyFile and jobs.ReadRun, the functions
// `relm-audit verify` and `report` call. Rounds repeat until the phase's
// time is up.
var auditSuites = []string{"memorization", "toxicity", "bias", "lambada"}

const auditModel = "large"

// auditInputs is one seeded audit plan. Each round runs the suites in a
// fresh seeded order and cancels one of them after a seeded item count;
// every block of len(auditSuites) rounds cancels each suite once, so every
// seed runs the same mix over a phase and only orders and stop points differ.
type auditInputs struct {
	rng      *rand.Rand
	items    map[string]int // each suite's item count
	block    []int          // suites (indexes) left to cancel in this block
	maxItems int            // per suite; 0 runs each suite's full worklist
}

// auditPlan is one round's suite order and cancellation.
type auditPlan struct {
	order       []string
	cancelSuite string
	cancelAfter int
}

func makeAuditInputs(w *world, seed int64, maxItems int) (*auditInputs, error) {
	in := &auditInputs{rng: rand.New(rand.NewSource(seed)), items: map[string]int{}, maxItems: maxItems}
	for _, name := range auditSuites {
		suite, err := jobs.NewSuite(w.env, jobs.Spec{Suite: name})
		if err != nil {
			return nil, err
		}
		n := len(suite.Items(maxItems))
		if n < 2 {
			return nil, fmt.Errorf("suite %s has %d items; cancelling needs at least 2", name, n)
		}
		in.items[name] = n
	}
	return in, nil
}

// next draws the next round's plan.
func (in *auditInputs) next() auditPlan {
	if len(in.block) == 0 {
		in.block = in.rng.Perm(len(auditSuites))
	}
	var p auditPlan
	for _, i := range in.rng.Perm(len(auditSuites)) {
		p.order = append(p.order, auditSuites[i])
	}
	p.cancelSuite = auditSuites[in.block[0]]
	in.block = in.block[1:]
	p.cancelAfter = 1 + in.rng.Intn(in.items[p.cancelSuite]-1)
	return p
}

func (in *auditInputs) spec(suite string, cancelAfter int) jobs.Spec {
	return jobs.Spec{Suite: suite, Model: auditModel, Workers: maxConns, MaxItems: in.maxItems, CancelAfterItems: cancelAfter}
}

// auditJob is what the client observed of one suite.
type auditJob struct {
	id, suite          string
	submit, ended      time.Time
	items, errItems    int
	quarantined        int
	retries            int64
	ledgerBytes        int64
	engine             engine.Stats
	cancelled          bool    // the suite was cancelled and resumed
	resumeMS           float64 // zero unless cancelled
	verifyMS, reportMS float64
	results            []jobs.ItemResult // from the ledger
	// problem is set when the job or its ledger misbehaved; its items then
	// count as failed.
	problem string
}

// auditRound is one pass over every suite, from first submit to last report.
type auditRound struct {
	start, end time.Time
	jobs       []auditJob
}

func runAudit(w *world, in *auditInputs, seconds float64, tr *spanLog) ([]auditRound, error) {
	stop := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var rounds []auditRound
	for len(rounds) == 0 || time.Now().Before(stop) {
		r, err := runAuditRound(w, in, in.next(), tr)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	return rounds, nil
}

func runAuditRound(w *world, in *auditInputs, plan auditPlan, tr *spanLog) (auditRound, error) {
	r := auditRound{start: time.Now()}
	for _, suite := range plan.order {
		cancelAfter := 0
		if suite == plan.cancelSuite {
			cancelAfter = plan.cancelAfter
		}
		j, err := runSuite(w, in.spec(suite, cancelAfter), tr)
		if err != nil {
			return r, err
		}
		r.jobs = append(r.jobs, j)
	}
	for i := range r.jobs {
		j := &r.jobs[i]
		path := w.mgr.LedgerPath(j.id)
		start := time.Now()
		var recs int
		verr := tr.call("jobs.VerifyFile", func() (err error) { recs, err = jobs.VerifyFile(path); return err })
		j.verifyMS = ms(time.Since(start))
		start = time.Now()
		var rf *jobs.RunFile
		rerr := tr.call("jobs.ReadRun", func() (err error) { rf, err = jobs.ReadRun(path); return err })
		j.reportMS = ms(time.Since(start))
		switch {
		case j.problem != "":
			continue
		case verr != nil:
			j.problem = fmt.Sprintf("verify: %v", verr)
			continue
		case rerr != nil:
			j.problem = fmt.Sprintf("report: %v", rerr)
			continue
		case recs == 0 || !rf.Completed || len(rf.Results) != j.items:
			j.problem = fmt.Sprintf("ledger has %d records, completed=%v, %d of %d results", recs, rf.Completed, len(rf.Results), j.items)
			continue
		}
		j.results = rf.Results
		for _, res := range rf.Results {
			if res.Err != "" {
				j.errItems++
			}
		}
	}
	r.end = time.Now()
	return r, nil
}

// runSuite submits one suite, waits for it (resuming it once if it was
// cancelled), and reads its final snapshot. The error reports a client or
// transport failure; a job that misbehaves is recorded in its problem.
func runSuite(w *world, spec jobs.Spec, tr *spanLog) (auditJob, error) {
	j := auditJob{suite: spec.Suite, cancelled: spec.CancelAfterItems > 0, submit: time.Now()}
	var snap jobs.Snapshot
	if err := tr.call("jobs.submit", func() error { return w.postJSON("/v1/jobs", spec, 202, &snap) }); err != nil {
		return j, err
	}
	j.id = snap.ID
	job, ok := w.mgr.Get(j.id)
	if !ok {
		return j, fmt.Errorf("job %s vanished after submit", j.id)
	}
	job.Wait()
	var runs []jobs.Snapshot
	if j.cancelled {
		if err := tr.call("jobs.get", func() error { return w.getJSON("/v1/jobs/"+j.id, &snap) }); err != nil {
			return j, err
		}
		runs = append(runs, snap)
		if snap.Status != jobs.StatusCancelled {
			j.problem = fmt.Sprintf("ended %s despite cancel_after_items", snap.Status)
			return j.finish(runs), nil
		}
		start := time.Now()
		if err := tr.call("jobs.resume", func() error { return w.postJSON("/v1/jobs/"+j.id+"/resume", nil, 202, &snap) }); err != nil {
			return j, err
		}
		j.resumeMS = ms(time.Since(start))
		if job, ok = w.mgr.Get(j.id); !ok {
			return j, fmt.Errorf("job %s vanished after resume", j.id)
		}
		job.Wait()
	}
	j.ended = time.Now()
	if err := tr.call("jobs.get", func() error { return w.getJSON("/v1/jobs/"+j.id, &snap) }); err != nil {
		return j, err
	}
	runs = append(runs, snap)
	if snap.Status != jobs.StatusCompleted {
		j.problem = fmt.Sprintf("ended %s: %s", snap.Status, snap.Error)
	}
	return j.finish(runs), nil
}

// finish folds the job's run snapshots (the cancelled run, if any, then the
// last) into j.
func (j auditJob) finish(runs []jobs.Snapshot) auditJob {
	last := runs[len(runs)-1]
	j.items = last.Progress.Items
	j.ledgerBytes = last.LedgerBytes
	for _, s := range runs {
		j.engine.Add(s.Engine)
		j.retries += s.Retries
		j.quarantined += s.Quarantined
	}
	return j
}

// checkAudit runs each suite that was cancelled once more, uninterrupted,
// and requires every round's resumed results to equal that run's.
func checkAudit(w *world, in *auditInputs, rounds []auditRound) ([]string, error) {
	var bad []string
	want := map[string]string{} // suite -> its uninterrupted results, JSON
	for _, r := range rounds {
		for _, j := range r.jobs {
			if j.problem != "" {
				bad = append(bad, fmt.Sprintf("job %s (%s): %s", j.id, j.suite, j.problem))
				continue
			}
			if !j.cancelled {
				continue
			}
			if _, ok := want[j.suite]; !ok {
				ref, line, err := uninterrupted(w, in, j.suite)
				if err != nil {
					return nil, err
				}
				if line != "" {
					bad = append(bad, line)
				}
				want[j.suite] = ref
			}
			got, err := json.Marshal(j.results)
			if err != nil {
				return nil, err
			}
			if string(got) != want[j.suite] {
				bad = append(bad, fmt.Sprintf("resumed %s (%s) results differ from an uninterrupted run", j.suite, j.id))
			}
		}
	}
	return bad, nil
}

// uninterrupted runs suite without a cancellation and returns its ledger's
// results as JSON, or a mismatch line when the run or its ledger failed.
func uninterrupted(w *world, in *auditInputs, suite string) (results, bad string, err error) {
	ref, err := runSuite(w, in.spec(suite, 0), nil)
	if err != nil {
		return "", "", err
	}
	if ref.problem != "" {
		return "", fmt.Sprintf("reference run %s (%s): %s", ref.id, ref.suite, ref.problem), nil
	}
	rf, err := jobs.ReadRun(w.mgr.LedgerPath(ref.id))
	if err != nil {
		return "", fmt.Sprintf("reference ledger %s: %v", ref.id, err), nil
	}
	b, err := json.Marshal(rf.Results)
	return string(b), "", err
}
