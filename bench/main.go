// Command bench is the repository's benchmark: five named workloads, each
// measured end to end from outside the program, and — with -trace 1 — layer
// by layer through decorators on every layer's public seam.
//
//	go run ./bench -workload wire-read -seed 1 -seconds 10 -trace 0
//	go run ./bench -workload all -runs 5 -out A.json
//	go run ./bench -compare A.json B.json
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}.
// See README.md in this directory for what every workload and metric means.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"labflow/bench/wrap"
)

// endToEnd is the end-to-end metric table; BENCHMARK.json repeats it (a
// test holds the two equal). Bound is the share of the baseline median by
// which a metric may get worse before a change counts as a regression.
var endToEnd = []struct {
	name, unit, better string
	bound              float64
}{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"bytes_per_user_byte", "ratio", "lower", 0.02},
	{"live_heap_mb", "MiB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// setupReps is how many times an untraced run sets its workload up; set-up
// time is the median of the repetitions.
const setupReps = 3

// report is one run of one workload.
type report struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Traced    bool                `json:"traced"`
	Seconds   float64             `json:"seconds"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]metric   `json:"metrics"`
	Samples   map[string]classLat `json:"samples"`
	Failures  []string            `json:"failures,omitempty"`
	Sizes     map[string]any      `json:"sizes"`
	Rates     []float64           `json:"slice_ops_per_s"`
	Passes    int                 `json:"passes,omitempty"`
	Intervals []intervalRow       `json:"intervals,omitempty"`
	SetupS    []float64           `json:"setup_s_each,omitempty"`
}

// environment is what a results file says about where it was measured.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
	Loop       string `json:"loop"`
}

// resultsFile is the one output schema: environment, then cells.
type resultsFile struct {
	Environment environment `json:"environment"`
	Cells       []*report   `json:"cells"`
}

func currentEnvironment() environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOGC: os.Getenv("GOGC"), Commit: "unknown", Clients: numWorkers, Loop: "closed",
	}
	if env.GOGC == "" {
		env.GOGC = "100 (default)"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

func secondsOf(d float64) time.Duration { return time.Duration(d * float64(time.Second)) }

// runUntraced measures the end-to-end metrics: set-up (repeated), one
// window, the correctness checks.
func runUntraced(def *workloadDef, cfg *config, profile io.Writer) (*report, error) {
	rep := &report{Workload: def.name, Seed: cfg.seed, Seconds: cfg.seconds, Metrics: map[string]metric{}}
	var inst instance
	for i := 0; i < setupReps; i++ {
		t0 := nowNs()
		in, _, err := def.setup(cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.SetupS = append(rep.SetupS, float64(nowNs()-t0)/1e9)
		if i < setupReps-1 {
			in.close()
			continue
		}
		inst = in
	}
	defer inst.close()
	if profile != nil {
		if err := pprof.StartCPUProfile(profile); err != nil {
			return nil, err
		}
	}
	m, err := inst.measure(secondsOf(cfg.seconds), nil)
	if profile != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	var c checks
	finish(rep, inst, m, &c)
	values := map[string]float64{
		"ops_per_s": m.opsPerS, "read_p50_us": m.class[clsRead].P50US, "write_p50_us": m.class[clsWrite].P50US,
		"bytes_per_user_byte": m.bytesPerUserByte, "live_heap_mb": m.liveHeapMB, "setup_s": median(rep.SetupS),
	}
	for _, e := range endToEnd {
		rep.Metrics[e.name] = metric{Value: values[e.name], Unit: e.unit}
		if !(values[e.name] > 0) {
			c.failf("metric %s is %v; every end-to-end metric must be measured", e.name, values[e.name])
		}
	}
	rep.Failures, rep.Correct = c.failures, c.ok()
	return rep, nil
}

// finish runs the correctness checks and fills the report fields every run
// has.
func finish(rep *report, inst instance, m *measured, c *checks) {
	rep.Attempted, rep.Failed = m.attempted, m.failed
	if m.failed > 0 {
		c.failf("%d of %d operations failed or answered wrongly; first: %v", m.failed, m.attempted, m.firstErr)
	}
	inst.verify(c)
	rep.Sizes = inst.describe()
	rep.Passes, rep.Intervals, rep.Rates = m.passes, m.intervals, m.rates
	rep.Samples = map[string]classLat{}
	for cls, cl := range m.class {
		if cl.N > 0 {
			rep.Samples[classNames[cls]] = cl
		}
	}
}

// runTraced measures the per-layer metrics: an untraced reference window
// for a third of the time, then a traced window over the same store.
func runTraced(def *workloadDef, cfg *config, traceFile string, human *bufio.Writer) (*report, error) {
	rep := &report{Workload: def.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: true, Metrics: map[string]metric{}}
	rec := wrap.NewRecorder(traceCapacity, epoch)
	inst, st, err := def.setup(cfg, rec)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()

	allocs0, bytes0 := allocCounters()
	ref, err := inst.measure(secondsOf(cfg.seconds/3), nil)
	if err != nil {
		return nil, err
	}
	allocs1, bytes1 := allocCounters()

	in := layerInputs{ref: ref, allocs: allocs1 - allocs0, bytes: bytes1 - bytes0, setup: st}
	in.before = inst.counters()
	rec.Enable(true)
	in.traced, err = inst.measure(secondsOf(cfg.seconds*2/3), rec)
	rec.Enable(false)
	if err != nil {
		return nil, err
	}
	in.after = inst.counters()

	spans, dropped := rec.Spans()
	a, err := writeTraceFile(traceFile, spans, dropped)
	if err != nil {
		return nil, fmt.Errorf("write %s: %w", traceFile, err)
	}
	layers := layerReport(a, in)
	for _, pm := range perLayerMetrics {
		rep.Metrics[pm.name] = metric{Value: layers[pm.name], Unit: pm.unit}
	}
	fmt.Fprintf(human, "%s seed %d: traced window %.2fs after a %.2fs untraced reference; %d spans (%d dropped), head written to %s\n",
		def.name, cfg.seed, in.traced.seconds, ref.seconds, a.spans, a.dropped, traceFile)
	printLayerTable(human, a, layers)

	var c checks
	total := &measured{
		attempted: ref.attempted + in.traced.attempted, failed: ref.failed + in.traced.failed,
		firstErr: ref.firstErr, class: in.traced.class, passes: in.traced.passes, intervals: in.traced.intervals,
	}
	if total.firstErr == nil {
		total.firstErr = in.traced.firstErr
	}
	finish(rep, inst, total, &c)
	if a.dropped > 0 {
		c.failf("span log overflowed: %d spans dropped", a.dropped)
	}
	rep.Failures, rep.Correct = c.failures, c.ok()
	return rep, nil
}

// printHuman writes an untraced run for a person to read.
func printHuman(w *bufio.Writer, rep *report) {
	fmt.Fprintf(w, "%s seed %d: %.0fs window, %d operations attempted, %d failed\n", rep.Workload, rep.Seed, rep.Seconds, rep.Attempted, rep.Failed)
	for _, e := range endToEnd {
		fmt.Fprintf(w, "  %-22s %14.4f %s\n", e.name, rep.Metrics[e.name].Value, e.unit)
	}
	names := make([]string, 0, len(rep.Samples))
	for name := range rep.Samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := rep.Samples[name]
		fmt.Fprintf(w, "  %-8s latency: p50 %.3f us, p99 %.3f us over %d samples\n", name, s.P50US, s.P99US, s.N)
	}
	if len(rep.Intervals) > 0 {
		fmt.Fprintf(w, "  last of %d passes, by growth interval:\n  %-8s %8s %10s %8s %12s %12s\n", rep.Passes, "interval", "events", "elapsed_s", "faults", "page_writes", "size_bytes")
		for _, r := range rep.Intervals {
			fmt.Fprintf(w, "  %-8s %8d %10.4f %8d %12d %12d\n", r.Interval, r.Events, r.ElapsedS, r.Faults, r.PageWrites, r.SizeBytes)
		}
	}
}

// resultLine is the object the driver reads from the last line of output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg        config
		trace      = fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
		runs       = fs.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
		out        = fs.String("out", "", "also write every run, with its environment, to this JSON file")
		compare    = fs.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
		traceFile  = fs.String("tracefile", "trace.jsonl", "where a traced run writes the head of its span log")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the measured window to this file")
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	fs.Float64Var(&cfg.scale, "scale", 1, "shrink every data size by this factor (tests)")
	fs.StringVar(&cfg.dir, "dir", ".bench_build", "directory for database files; created if missing")
	fs.StringVar(&cfg.rules, "rules", "rules", "directory holding labflow1.lbq and provenance.lbq")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var defs []*workloadDef
	if cfg.workload == "all" {
		for i := range workloads {
			defs = append(defs, &workloads[i])
		}
	} else if def := findWorkload(cfg.workload); def != nil {
		defs = append(defs, def)
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds, -scale and -runs must be positive, -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	cfg.dir = scratch
	cfg.trace = *trace == 1

	var profile io.Writer
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		defer f.Close()
		profile = f
	}

	human := bufio.NewWriter(stdout)
	defer human.Flush()
	file := resultsFile{Environment: currentEnvironment()}
	if len(defs) > 1 || *runs > 1 {
		// One process per run, as the driver does it: a run's heap gauge
		// must not see what an earlier run left behind.
		if profile != nil {
			fmt.Fprintln(stderr, "bench: -cpuprofile profiles a single run")
			return 2
		}
		for _, def := range defs {
			for i := 0; i < *runs; i++ {
				cell, err := runChild(def.name, cfg.seed+int64(i), args, scratch, human, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", def.name, cfg.seed+int64(i), err)
					return 1
				}
				file.Cells = append(file.Cells, cell)
			}
		}
	} else {
		def := defs[0]
		var rep *report
		if cfg.trace {
			rep, err = runTraced(def, &cfg, *traceFile, human)
		} else {
			rep, err = runUntraced(def, &cfg, profile)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", def.name, err)
			return 1
		}
		if !cfg.trace {
			printHuman(human, rep)
		}
		for _, f := range rep.Failures {
			fmt.Fprintf(human, "  FAILED CHECK: %s\n", f)
		}
		line, err := json.Marshal(resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics})
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(human, "%s\n", line)
		file.Cells = append(file.Cells, rep)
	}
	if *out != "" {
		data, err := json.MarshalIndent(&file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: write %s: %v\n", *out, err)
			return 1
		}
	}
	for _, c := range file.Cells {
		if !c.Correct {
			return 1
		}
	}
	return 0
}

// runChild runs one workload once in a fresh process — this program again,
// with the caller's flags narrowed to one cell — passes its output through,
// and returns the cell it wrote. A cell that fails its checks still comes
// back (marked incorrect); a child that dies without one is an error.
func runChild(workload string, seed int64, args []string, scratch string, stdout, stderr io.Writer) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cellFile := fmt.Sprintf("%s/cell-%s-%d.json", scratch, workload, seed)
	// Later flags win, so the narrowing flags go last.
	cmd := exec.Command(self, append(append([]string{}, args...),
		"-workload", workload, "-seed", fmt.Sprint(seed), "-runs", "1", "-out", cellFile)...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	runErr := cmd.Run() // exit 1 with a cell written is an incorrect run, not an error
	f, err := loadResults(cellFile)
	if err != nil {
		return nil, fmt.Errorf("child run left no result: %w", cmp.Or(runErr, err))
	}
	if len(f.Cells) != 1 {
		return nil, fmt.Errorf("child run wrote %d cells, want 1", len(f.Cells))
	}
	return f.Cells[0], nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
