package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestServeParity fails when relm-serve's flag defaults drift from the
// ones the benchmark builds its server and models from.
func TestServeParity(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "relm-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/relm-serve").CombinedOutput(); err != nil {
		t.Fatalf("build relm-serve: %v\n%s", err, out)
	}
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits non-zero on some Go versions; the usage text is what matters
	got := flagDefaults(string(out))
	d := serveDefaults
	want := map[string]string{
		"parallelism":    shown(d.Parallelism),
		"fusion":         shown(d.Fusion),
		"fusion-window":  shown(d.FusionWindow),
		"kv-budget":      shown(d.KVBudget),
		"kv-compression": shown(d.KVCompression),
		"cache":          shown(d.Cache),
		"max-concurrent": shown(d.MaxConcurrent),
		"trace-sampling": shown(d.TraceSampling),
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("relm-serve -h lists no -%s flag", name)
			continue
		}
		if g != w {
			t.Errorf("-%s: relm-serve default %q, benchmark uses %q", name, g, w)
		}
	}
}

// shown renders a default the way the flag package's usage text does: zero
// values print nothing, strings print quoted.
func shown(v any) string {
	switch v := v.(type) {
	case string:
		if v == "" {
			return ""
		}
		return strconv.Quote(v)
	case float64:
		if v == 0 {
			return ""
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	case time.Duration:
		if v == 0 {
			return ""
		}
		return v.String()
	case bool:
		if !v {
			return ""
		}
		return "true"
	default:
		s := fmt.Sprint(v)
		if s == "0" {
			return ""
		}
		return s
	}
}

// flagDefaults parses `-h` usage text into flag name -> printed default
// ("" when the usage shows none).
func flagDefaults(usage string) map[string]string {
	out := map[string]string{}
	var name string
	sc := bufio.NewScanner(strings.NewReader(usage))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "  -") {
			name = strings.Fields(strings.TrimPrefix(line, "  -"))[0]
			out[name] = ""
		}
		if name == "" {
			continue
		}
		if i := strings.LastIndex(line, "(default "); i >= 0 && strings.HasSuffix(line, ")") {
			out[name] = line[i+len("(default ") : len(line)-1]
		}
	}
	return out
}

// declared reads BENCHMARK.json's metric name -> unit table for one list.
func declared(t *testing.T, list string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var metrics []struct{ Name, Unit string }
	if err := json.Unmarshal(b[list], &metrics); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range metrics {
		out[m.Name] = m.Unit
	}
	return out
}

func tinyConfig(t *testing.T, wl string, traced bool) config {
	return config{
		workload: wl, seed: 7, seconds: 1, trace: traced, setups: 1,
		workDir: t.TempDir(), kvIDs: 8, auditItems: 4, log: io.Discard,
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// requires a correct result that prints exactly the metrics BENCHMARK.json
// declares, each with its declared unit.
func TestSmoke(t *testing.T) {
	for _, wl := range []string{serveOpen, kvDeep, audit} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl, traced), func(t *testing.T) {
				res, summary, err := run(tinyConfig(t, wl, traced))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result not correct: %+v\n%s", res, summary)
				}
				if !strings.Contains(summary, "seed=7") {
					t.Errorf("summary does not record the seed: %s", summary)
				}
				list := "end_to_end"
				if traced {
					list = "per_layer"
				}
				want := declared(t, list)
				got := map[string]string{}
				for name, m := range res.Metrics {
					got[name] = m.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("printed metrics differ from BENCHMARK.json %s:\ngot  %v\nwant %v", list, got, want)
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				for _, key := range []string{`"correct"`, `"attempted"`, `"failed"`, `"metrics"`} {
					if !bytes.Contains(line, []byte(key)) {
						t.Errorf("result line lacks %s: %s", key, line)
					}
				}
			})
		}
	}
}

// TestPlantedMismatchFails corrupts one recorded output per workload, and
// on kv-deep separately every row the incremental step computes (rows the
// logit cache then serves), and requires the run to come back incorrect.
func TestPlantedMismatchFails(t *testing.T) {
	for _, name := range []string{serveOpen, kvDeep, audit, kvDeep + "/rows"} {
		t.Run(name, func(t *testing.T) {
			wl, rows := strings.CutSuffix(name, "/rows")
			cfg := tinyConfig(t, wl, false)
			cfg.plantMismatch = !rows
			cfg.plantRows = rows
			res, summary, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct {
				t.Fatalf("a planted mismatch passed the output checks: %s", summary)
			}
		})
	}
}

// TestSelfTimesAddUp checks the self-time attribution on a hand-built tree
// with overlapping siblings.
func TestSelfTimesAddUp(t *testing.T) {
	spans := []ivl{
		{0, 100, 0, selfServer},
		{10, 90, 1, selfQuery},
		{20, 60, 2, "round"},
		{40, 70, 2, "emit"}, // overlaps round for 40..60
		{45, 50, 3, selfModel},
	}
	got := selfTimes(spans)
	// round and emit split 40..45 and 50..60 evenly; model owns 45..50.
	want := map[string]float64{selfServer: 20, selfQuery: 30, "round": 27.5, "emit": 17.5, selfModel: 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}
