package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/lambada"
	"repro/internal/server"
	"repro/relm"
)

// serve-open: an open loop of POST /v1/search at serveRate requests per
// second over at most maxConns connections, drawn evenly from the four §4
// query families. Each request is timed from when the schedule made it due.
const (
	// serveRate was fixed on a 2-vCPU host: high enough that queries
	// overlap and fusion forms some multi-query batches, low enough that
	// admission control refuses nothing. Measured there (two traced 25 s
	// phases, 500 requests each): 2.4% and 3.2% of fused batches mixed
	// queries, 93% were window flushes, none was refused.
	serveRate = 20.0
	// ttfmLimit is the time-to-first-match limit slo_ok_frac counts against.
	ttfmLimit = 250 * time.Millisecond
	// lagBound marks a serve-open run invalid: if the generator's p90
	// lateness exceeds it, the schedule was not the one requested.
	lagBound = 10 * time.Millisecond
)

// serveInputs is one seeded serve-open schedule: request i is due at
// offset due[i] from the start of the phase.
type serveInputs struct {
	due    []time.Duration
	bodies [][]byte
}

func makeServeInputs(env *experiments.Env, seed int64, seconds float64) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int(serveRate*seconds + 0.5)
	if n < len(serveFamilies) {
		n = len(serveFamilies)
	}
	// A fixed count of uniform arrival times is a Poisson process
	// conditioned on its count: bursty like independent users, but every
	// seed offers the same load.
	in := &serveInputs{due: make([]time.Duration, n), bodies: make([][]byte, n)}
	for i := range in.due {
		in.due[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(in.due, func(i, j int) bool { return in.due[i] < in.due[j] })
	// Every block of len(serveModels)*len(serveFamilies) consecutive
	// arrivals holds each (family, model) pair once, in seeded order, so
	// every stretch of the schedule carries the same mix on every seed and
	// only the items and the order differ.
	combos := len(serveFamilies) * len(serveModels)
	items := serveItems{
		urls:    env.Web.Memorized,
		toxic:   experiments.ToxicityItems(env, 0),
		lambada: experiments.LambadaItems(env, 0),
	}
	var block []int
	for i := range in.bodies {
		if len(block) == 0 {
			block = rng.Perm(combos)
		}
		c := block[0]
		block = block[1:]
		req := serveFamilies[c%len(serveFamilies)].gen(&items, rng)
		req.Model = serveModels[c/len(serveFamilies)]
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		in.bodies[i] = b
	}
	return in, nil
}

// serveModels are the registry names serve-open queries.
var serveModels = []string{"large", "small"}

// serveItems are the synthetic world's item lists the families draw from.
type serveItems struct {
	urls    []string
	toxic   []corpus.InsultMatch
	lambada []lambada.Item
}

// serveFamilies are the paper's four §4 query shapes.
var serveFamilies = []struct {
	name string
	gen  func(items *serveItems, rng *rand.Rand) server.SearchRequest
}{
	{"url", func(items *serveItems, rng *rand.Rand) server.SearchRequest {
		// URL extraction (§4.1): the memorization pattern after the shared
		// prefix plus the first character of a memorized URL, streaming
		// several matches.
		url := items.urls[rng.Intn(len(items.urls))]
		rest := strings.TrimPrefix(url, experiments.URLPrefix)
		return server.SearchRequest{
			Pattern:    experiments.URLPattern,
			Prefix:     relm.EscapeLiteral(experiments.URLPrefix + rest[:1]),
			TopK:       40,
			MaxMatches: 6,
		}
	}},
	{"bias", func(items *serveItems, rng *rand.Rand) server.SearchRequest {
		// Gender-bias sampling (§4.2): random traversal over the profession
		// disjunction after a prefix disjunction over genders.
		genders := make([]string, len(corpus.Genders))
		for i, g := range corpus.Genders {
			genders[i] = "(" + relm.EscapeLiteral(g) + ")"
		}
		profs := make([]string, len(corpus.Professions))
		for i, p := range corpus.Professions {
			profs[i] = "(" + relm.EscapeLiteral(p) + ")"
		}
		return server.SearchRequest{
			Pattern:    " (" + strings.Join(profs, "|") + ")",
			Prefix:     "The (" + strings.Join(genders, "|") + ") was trained in",
			Strategy:   "random",
			Seed:       1 + rng.Int63n(1<<30),
			MaxMatches: 6,
		}
	}},
	{"toxicity", func(items *serveItems, rng *rand.Rand) server.SearchRequest {
		// Prompted toxicity (§4.3): the insult under one edit and every
		// encoding, after the sentence's own prompt — a new pattern per
		// item, so its compile is cold.
		it := items.toxic[rng.Intn(len(items.toxic))]
		return server.SearchRequest{
			Pattern:      relm.EscapeLiteral(" " + it.Insult),
			Prefix:       relm.EscapeLiteral(tail(it.Prompt, 96)),
			TopK:         40,
			Tokenization: "all",
			Edits:        1,
			MaxMatches:   1,
		}
	}},
	{"lambada", func(items *serveItems, rng *rand.Rand) server.SearchRequest {
		// LAMBADA cloze (§4.4): a new long prefix per item, one terminated
		// word.
		it := items.lambada[rng.Intn(len(items.lambada))]
		return server.SearchRequest{
			Pattern:    ` ([a-zA-Z]+)(\.|!|\?)?(")?`,
			Prefix:     relm.EscapeLiteral(tail(it.Context, 120)),
			TopK:       1000,
			RequireEOS: true,
			MaxMatches: 1,
		}
	}},
}

// tail returns at most the last n bytes of s, starting at a word boundary:
// the server enumerates prefixes of up to 128 bytes.
func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	s = s[len(s)-n:]
	if i := strings.IndexByte(s, ' '); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// runServeOpen sends the schedule and returns every op in schedule order
// plus the generator's lateness per request (ms).
func runServeOpen(w *world, in *serveInputs, tr *spanLog) ([]searchOp, []float64) {
	n := len(in.due)
	ops := make([]searchOp, n)
	lags := make([]float64, n)
	// Buffered to the schedule length: the generator never blocks, so its
	// lateness measures its own timer, not the connections' backlog.
	queue := make(chan int, n)
	t0 := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			br := newReader()
			for i := range queue {
				ops[i] = w.search(br, in.bodies[i], t0.Add(in.due[i]))
				tr.searchDone(w, &ops[i])
			}
		}()
	}
	for i, off := range in.due {
		due := t0.Add(off)
		time.Sleep(time.Until(due))
		lags[i] = ms(time.Since(due))
		queue <- i
	}
	close(queue)
	wg.Wait()
	return ops, lags
}

// checkStreams replays every distinct request once, one at a time, against
// ref (rewritten first when rewrite is non-nil) and compares each recorded
// ok stream with the replay, byte for byte (via the stream hash). It
// returns one line per mismatch.
func checkStreams(ref *world, ops []searchOp, rewrite func(key string) string) []string {
	byKey := map[string][]*searchOp{}
	var keys []string
	for i := range ops {
		op := &ops[i]
		if op.outcome != opOK {
			continue
		}
		if _, seen := byKey[op.key]; !seen {
			keys = append(keys, op.key)
		}
		byKey[op.key] = append(byKey[op.key], op)
	}
	var bad []string
	br := newReader()
	for _, k := range keys {
		body := k
		if rewrite != nil {
			body = rewrite(k)
		}
		want := ref.search(br, []byte(body), time.Time{})
		if want.outcome != opOK {
			bad = append(bad, fmt.Sprintf("replay of %s failed: %s", k, want.errMsg))
			continue
		}
		for _, op := range byKey[k] {
			if op.streamHash != want.streamHash || op.matches != want.matches {
				bad = append(bad, fmt.Sprintf("stream of %s differs from its replay (%d vs %d matches)", k, op.matches, want.matches))
			}
		}
	}
	return bad
}
