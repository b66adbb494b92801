package main

import (
	"encoding/json"
	"math/rand"
	"strings"
	"time"

	"repro/internal/server"
	"repro/relm"
)

// kv-deep: a closed loop over one connection of incremental memorization
// probes. Each probe anchors a 35-token digit id as its prefix and asks for
// the most likely continuations of one to three digits, the shape of the
// repo's KV-compression gate; each id's match budget sets how deep the
// continuation search goes. The seeded id set's prefix states far exceed the
// arena's 256-node hot window, so states demote and promote between
// revisits.
const (
	kvIDCount  = 96
	kvPattern  = " [0-9]{1,3}"
	kvModel    = "kv"
	kvIDDigits = 32
)

// kvBudgets are the probes' match budgets, dealt to the ids in turn so
// every seed runs the same mix of shallow and deep continuation searches.
var kvBudgets = []int{2, 4, 8, 16, 32}

// kvInputs is one seeded probe sequence: one probe per id, visited in a
// fresh seeded permutation per pass.
type kvInputs struct {
	probes [][]byte
	rng    *rand.Rand
	seq    []int
}

func makeKVInputs(seed int64, count int) *kvInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &kvInputs{rng: rng}
	for i := 0; i < count; i++ {
		id := ""
		if i < len(kvTrainedIDs) {
			id = kvTrainedIDs[i]
		} else {
			var sb strings.Builder
			sb.WriteString("id ")
			for k := 0; k < kvIDDigits; k++ {
				sb.WriteByte(byte('0' + rng.Intn(10)))
			}
			id = sb.String()
		}
		in.probes = append(in.probes, kvProbe(id, kvBudgets[i%len(kvBudgets)]))
	}
	return in
}

// next returns the next probe's request body.
func (in *kvInputs) next() []byte {
	if len(in.seq) == 0 {
		in.seq = in.rng.Perm(len(in.probes))
	}
	p := in.probes[in.seq[0]]
	in.seq = in.seq[1:]
	return p
}

func kvProbe(id string, matches int) []byte {
	b, _ := json.Marshal(server.SearchRequest{ // a struct of plain fields cannot fail to marshal
		Model:       kvModel,
		Pattern:     kvPattern,
		Prefix:      relm.EscapeLiteral(id),
		MaxMatches:  matches,
		Incremental: true,
	})
	return b
}

// runKVDeep probes until seconds have passed, one request at a time.
func runKVDeep(w *world, in *kvInputs, seconds float64, tr *spanLog) []searchOp {
	var ops []searchOp
	stop := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	br := newReader()
	for time.Now().Before(stop) {
		op := w.search(br, in.next(), time.Time{})
		tr.searchDone(w, &op)
		ops = append(ops, op)
	}
	return ops
}

// kvFullPath rewrites a recorded incremental probe into its full-prefix
// twin: DESIGN.md decision 10 promises the two stream identical bytes.
func kvFullPath(key string) string {
	var req server.SearchRequest
	if err := json.Unmarshal([]byte(key), &req); err != nil {
		return key // replays the original; a malformed key cannot come from kvProbe
	}
	req.Incremental = false
	b, _ := json.Marshal(req) // as in kvProbe
	return string(b)
}
