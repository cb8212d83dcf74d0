package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"labflow/bench/wrap"
)

// benchmarkSpec mirrors BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &spec
}

// TestSpecMatchesProgram holds BENCHMARK.json and the program's own tables
// equal: workload names and reasons, end-to-end metrics with direction and
// bound, per-layer metrics with unit and direction.
func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program has %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		e := endToEnd[i]
		if m.Name != e.name || m.Unit != e.unit || m.Better != e.better || m.Bound == nil || *m.Bound != e.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, e)
		}
		if e.bound <= 0 || e.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.name, e.bound)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program has %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		p := perLayerMetrics[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better || m.Bound != nil {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, p)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}
}

// runBench runs the program in process at a tiny size and returns the
// object on its last output line.
func runBench(t *testing.T, args ...string) (resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-scale", "0.02", "-seconds", "0.3", "-dir", t.TempDir(), "-rules", "../rules"}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(keys) != 4 {
		t.Errorf("result line has %d keys, want exactly correct, attempted, failed, metrics", len(keys))
	}
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res, stdout.String()
}

// TestWorkloadsEndToEnd runs every workload untraced: the checks pass, no
// operation fails, and exactly the end-to-end metrics come out, none zero.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			res, out := runBench(t, "-workload", def.name, "-seed", "7", "-trace", "0")
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			for _, e := range endToEnd {
				m, ok := res.Metrics[e.name]
				if !ok || m.Unit != e.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("metric %s = %+v (present=%v), want a positive value in %s", e.name, m, ok, e.unit)
				}
			}
		})
	}
}

// TestWorkloadsTraced runs every workload traced: the checks still pass,
// exactly the per-layer metrics come out, the span log is written, and the
// layers' self times add up to the time the clients observed.
func TestWorkloadsTraced(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
			res, out := runBench(t, "-workload", def.name, "-seed", "7", "-trace", "1", "-tracefile", traceFile)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d\n%s", res.Correct, res.Failed, out)
			}
			if len(res.Metrics) != len(perLayerMetrics) {
				t.Errorf("%d metrics reported, want the %d per-layer ones", len(res.Metrics), len(perLayerMetrics))
			}
			for _, p := range perLayerMetrics {
				if m, ok := res.Metrics[p.name]; !ok || m.Unit != p.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("metric %s = %+v (present=%v), want a finite value in %s", p.name, m, ok, p.unit)
				}
			}
			if sum := res.Metrics["trace_self_sum_ratio"].Value; sum < 0.95 || sum > 1.05 {
				t.Errorf("per-layer self times sum to %.3f of the client-observed total, want within 5%%", sum)
			}
			if res.Metrics["trace_overhead_ratio"].Value <= 0 || res.Metrics["trace_spans"].Value <= 0 {
				t.Errorf("no trace overhead or span count reported:\n%s", out)
			}
			data, err := os.ReadFile(traceFile)
			if err != nil {
				t.Fatal(err)
			}
			first, _, _ := strings.Cut(string(data), "\n")
			var span struct {
				Name, Layer, Op string
				StartNS         int64 `json:"start_ns"`
				EndNS           int64 `json:"end_ns"`
			}
			if err := json.Unmarshal([]byte(first), &span); err != nil || span.Name == "" || span.Layer == "" || span.EndNS < span.StartNS {
				t.Errorf("first span %q does not parse as a span (%v)", first, err)
			}
		})
	}
}

// TestLF1CountersTracedEqualUntraced: decorating every layer boundary must
// not change what the storage layer does — the same trace gives the same
// faults, page writes and file size with and without the decorators.
func TestLF1CountersTracedEqualUntraced(t *testing.T) {
	pass := func(rec *wrap.Recorder) [4]uint64 {
		cfg := &config{seed: 11, seconds: 0.2, scale: 0.05, dir: t.TempDir(), rules: "../rules"}
		inst, _, err := setupLF1Growth(cfg, rec)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.close()
		in := inst.(*lf1Instance)
		p, err := in.pass(len(in.tr.events), 0, nil)
		if err != nil || p.failed != 0 {
			t.Fatalf("pass: %v, %d failed (%v)", err, p.failed, p.firstErr)
		}
		return p.deterministic()
	}
	rec := wrap.NewRecorder(1<<20, epoch)
	rec.Enable(true)
	plain, traced := pass(nil), pass(rec)
	if plain != traced {
		t.Errorf("faults, page_writes, size_bytes, live_bytes: untraced %v, traced %v", plain, traced)
	}
	if spans, _ := rec.Spans(); len(spans) == 0 {
		t.Error("the traced pass recorded no spans")
	}
}

// TestAnalyzeNesting checks the sweep on a hand-built log: parents are found
// by enclosure, a call two requests both enclose stays unattributed, and
// self times telescope.
func TestAnalyzeNesting(t *testing.T) {
	span := func(l wrap.Layer, op wrap.Op, start, end int64) wrap.Span {
		return wrap.Span{Start: start, End: end, Layer: l, Op: op, Worker: wrap.NoWorker}
	}
	spans := []wrap.Span{
		// Request A: client 0..100 > labbase read 10..60 > storage read 20..40 > page read 25..35.
		{Start: 0, End: 100, Layer: wrap.LayerClient, Op: wrap.OpClientRead, Worker: 0, Seq: 1},
		span(wrap.LayerLabbase, wrap.OpMostRecent, 10, 60),
		span(wrap.LayerStorage, wrap.OpRead, 20, 40),
		span(wrap.LayerDevice, wrap.OpReadPage, 25, 35),
		// Request B overlaps A: client 5..200 > labbase write 70..190 >
		// storage commit 80..180 > log write 90..120, log sync 120..170.
		{Start: 5, End: 200, Layer: wrap.LayerClient, Op: wrap.OpClientWrite, Worker: 1, Seq: 1},
		span(wrap.LayerLabbase, wrap.OpPutSteps, 70, 190),
		span(wrap.LayerStorage, wrap.OpCommit, 80, 180),
		span(wrap.LayerDevice, wrap.OpLogWriteAt, 90, 120),
		span(wrap.LayerDevice, wrap.OpLogSync, 120, 170),
		// Background work outside every request.
		span(wrap.LayerDevice, wrap.OpSync, 300, 310),
	}
	var buf bytes.Buffer
	a, err := analyze(spans, 0, bufio.NewWriter(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.total[wrap.LayerClient]; got != 295 {
		t.Errorf("client time %d, want 295", got)
	}
	if got := a.orphan[wrap.LayerDevice]; got != 10 {
		t.Errorf("orphan device time %d, want the 10 of the background sync", got)
	}
	if a.storage[pathRead] != 20 || a.storage[pathWrite] != 100 || a.storageReads[pathRead] != 1 {
		t.Errorf("storage time by path %v, reads %v; want 20 on the read path, 100 on the write path", a.storage, a.storageReads)
	}
	if a.deviceUnder[wrap.OpRead] != 10 || a.deviceUnder[wrap.OpCommit] != 80 {
		t.Errorf("device time under Read %d and Commit %d, want 10 and 80", a.deviceUnder[wrap.OpRead], a.deviceUnder[wrap.OpCommit])
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(spans) {
		t.Fatalf("%d spans written, want %d", len(lines), len(spans))
	}
	// The labbase read lies inside both client spans: no request. Its
	// storage read has one enclosing labbase span: that is its parent.
	if !strings.Contains(lines[2], `"name":"labbase.MostRecent"`) || !strings.Contains(lines[2], `"request":null`) {
		t.Errorf("labbase read enclosed by two requests should inherit none: %s", lines[2])
	}
	if !strings.Contains(lines[3], `"name":"storage.Read"`) || !strings.Contains(lines[3], `"parent":2`) {
		t.Errorf("storage read should name the labbase read as parent: %s", lines[3])
	}
	// The write's labbase span starts after request A's client span ended.
	if !strings.Contains(lines[5], `"name":"labbase.PutSteps"`) || !strings.Contains(lines[5], `"request":"w1:1"`) {
		t.Errorf("labbase write enclosed by one request should inherit it: %s", lines[5])
	}
}

// TestCompare checks the verdicts: inside the bound is ok, past it worse
// (with a non-zero exit), and a spread wider than the bound unresolved.
func TestCompare(t *testing.T) {
	cells := func(ops ...float64) *resultsFile {
		f := &resultsFile{}
		for i, v := range ops {
			m := map[string]metric{}
			for _, e := range endToEnd {
				m[e.name] = metric{Value: 100, Unit: e.unit}
			}
			m["ops_per_s"] = metric{Value: v, Unit: "1/s"}
			f.Cells = append(f.Cells, &report{Workload: "wire-read", Seed: int64(i), Metrics: m})
		}
		return f
	}
	base := cells(1000, 1001, 1002, 1003, 1004)
	for _, tc := range []struct {
		name    string
		b       *resultsFile
		verdict string
		code    int
	}{
		{"same", cells(1000, 1001, 1002, 1003, 1004), "ok", 0},
		{"slower within bound", cells(950, 951, 952, 953, 954), "ok", 0},
		{"slower past bound", cells(700, 701, 702, 703, 704), "worse", 1},
		{"faster", cells(1500, 1501, 1502, 1503, 1504), "ok", 0},
		{"noisy", cells(600, 800, 1000, 1200, 1400), "unresolved", 0},
	} {
		var out bytes.Buffer
		code := compareResults(base, tc.b, &out)
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "wire-read") && strings.Contains(line, "ops_per_s") {
				row = line
			}
		}
		if code != tc.code || !strings.HasSuffix(strings.TrimSpace(row), tc.verdict) {
			t.Errorf("%s: exit %d verdict row %q, want exit %d verdict %s", tc.name, code, row, tc.code, tc.verdict)
		}
	}
}

// TestQuartilesMatchPython pins the spread to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v, %v; Python gives 1.5, 4.5", q1, q3)
	}
}
