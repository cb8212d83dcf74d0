// Command labflow runs the LabFlow-1 benchmark and its companion
// experiments, printing the paper's tables.
//
// Usage:
//
//	labflow -experiment table10 [-stores OStore,Texas+TC,...] [-scale N]
//	labflow -experiment ops     [-store Texas+TC]
//	labflow -experiment clustering
//	labflow -experiment evolution [-store Texas+TC]
//	labflow -experiment sweep   [-pools 64,192,512,4096]
//	labflow -experiment crashtest [-store ostore|texas|all] [-seed N] [-crashruns N]
//	labflow -experiment failover  -store ostore [-seed N] [-crashruns N]
//	labflow -experiment recovery
//	labflow -experiment provenance [-depths 4,8,16,32,64] [-width 2]
//	labflow -experiment all
//
// The crashtest experiment runs seeded crash-recovery schedules against the
// persistent storage managers (see internal/storage/crashtest). Every
// schedule is derived from its seed alone, so a failure report's seed
// replays the exact same crash: rerun with -seed N -crashruns 1. The
// failover experiment is its warm-standby counterpart, on ostore only (texas
// has no log to ship): the primary's commits ship to an in-process standby,
// the seeded crash kills the primary, and the promoted follower must serve
// exactly the committed prefix. The recovery experiment prints the BENCH_6
// rows — records replayed by a checkpoint-bounded reopen, and a promoted
// standby with nothing to replay (see recovery.go).
//
// Every line labflow prints on stdout is a function of its flags, -seed and
// -scale among them: it reads no clock. Wall-clock timing lives in bench/,
// which repeats runs and takes medians. -cpuprofile / -memprofile write
// pprof profiles of the run.
//
// The working data lives in a fresh directory under -dir (the system's
// temporary directory by default), so a reused -dir never hands a run an
// earlier run's files; it is removed afterwards unless -keep is given.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"labflow/internal/core"
	"labflow/internal/labbase"
	"labflow/internal/storage"
	"labflow/internal/storage/crashtest"
)

// options carries the command-line configuration through the experiments.
type options struct {
	experiment string
	stores     string
	store      string
	dir        string
	keep       bool
	scale      int
	intervals  int
	seed       int64
	pools      string
	shape      bool
	crashruns  int
	depths     string
	width      int
	budget     int64
}

func main() {
	var o options
	flag.StringVar(&o.experiment, "experiment", "table10", "schema | table10 | ops | clustering | evolution | sweep | crashtest | failover | recovery | provenance | all")
	flag.StringVar(&o.stores, "stores", "", "comma-separated server versions for table10 (default: all five)")
	flag.StringVar(&o.store, "store", "Texas+TC", "server version for ops/evolution")
	flag.StringVar(&o.dir, "dir", "", "parent of each run's fresh working directory (default: the system temp dir)")
	flag.BoolVar(&o.keep, "keep", false, "keep the working directory")
	flag.IntVar(&o.scale, "scale", 0, "override BaseClones (the 1X unit)")
	flag.IntVar(&o.intervals, "intervals", 0, "override the number of 0.5X intervals")
	flag.Int64Var(&o.seed, "seed", 0, "override the workload seed")
	flag.StringVar(&o.pools, "pools", "64,192,512,4096", "pool sizes (pages) for the sweep")
	flag.BoolVar(&o.shape, "check-shape", true, "verify the paper-shape expectations after table10")
	flag.IntVar(&o.crashruns, "crashruns", 100, "number of consecutive seeds for crashtest (starting at -seed)")
	flag.StringVar(&o.depths, "depths", "4,8,16,32,64", "DAG depths for the provenance sweep")
	flag.IntVar(&o.width, "width", 2, "DAG width for the provenance sweep (fanout and diamond shapes)")
	flag.Int64Var(&o.budget, "budget", 2_000_000, "resolution-step budget for untabled provenance cells (0 = default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "labflow: cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "labflow: cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	err := run(o)

	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "labflow: memprofile:", merr)
			os.Exit(1)
		}
		runtime.GC() // settle the heap so the profile shows live + cumulative allocs
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			fmt.Fprintln(os.Stderr, "labflow: memprofile:", merr)
			os.Exit(1)
		}
		f.Close()
	}

	if err != nil {
		fmt.Fprintln(os.Stderr, "labflow:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	p := core.DefaultParams()
	if o.scale > 0 {
		// Keep the cache-to-database ratio of the default configuration:
		// the benchmark studies locality under proportional memory
		// pressure, not an ever-shrinking cache.
		ratio := float64(o.scale) / float64(p.BaseClones)
		p.BaseClones = o.scale
		p.PoolPages = int(float64(p.PoolPages)*ratio + 0.5)
		p.ResidentPages = int(float64(p.ResidentPages)*ratio + 0.5)
	}
	if o.intervals > 0 {
		p.Intervals = o.intervals
	}
	if o.seed != 0 {
		p.Seed = o.seed
	}

	// Every invocation works in a fresh directory under -dir, so no run
	// opens files an earlier one left there.
	if o.dir != "" {
		if err := os.MkdirAll(o.dir, 0o755); err != nil {
			return err
		}
	}
	tmp, err := os.MkdirTemp(o.dir, "labflow-*")
	if err != nil {
		return err
	}
	o.dir = tmp
	if o.keep {
		fmt.Fprintf(os.Stderr, "working directory: %s\n", o.dir)
	} else {
		defer os.RemoveAll(tmp)
	}

	experiments := []string{o.experiment}
	if o.experiment == "all" {
		experiments = []string{"schema", "table10", "ops", "clustering", "evolution", "sweep"}
	}
	for i, exp := range experiments {
		if i > 0 {
			fmt.Println()
		}
		if err := runOne(exp, o, p); err != nil {
			return err
		}
	}
	return nil
}

func runOne(experiment string, o options, p core.Params) error {
	switch experiment {
	case "schema":
		// Paper Table 1: the fixed storage schema, independent of the
		// evolving user schema.
		fmt.Println("Storage schema (paper Table 1) — fixed, never evolves:")
		for _, class := range labbase.StorageSchema() {
			fmt.Printf("  %s\n", class)
		}
		fmt.Println("\nStorage segments (three small/hot, one large/cold):")
		for seg := storage.SegmentID(0); seg < storage.NumSegments; seg++ {
			kind := "small, frequently accessed"
			if seg == storage.SegHistory {
				kind = "large, infrequently accessed"
			}
			fmt.Printf("  %-9s %s\n", seg, kind)
		}

	case "table10":
		kinds := core.AllStoreKinds
		if o.stores != "" {
			kinds = nil
			for _, name := range strings.Split(o.stores, ",") {
				k, err := core.ParseStoreKind(strings.TrimSpace(name))
				if err != nil {
					return err
				}
				kinds = append(kinds, k)
			}
		}
		results, err := core.RunAll(kinds, o.dir+"/table10", p)
		if err != nil {
			return err
		}
		fmt.Print(core.FormatTable10(results))
		fmt.Println()
		fmt.Print(core.FormatSeries(results))
		if o.shape {
			if problems := core.CheckShape(results); len(problems) > 0 {
				for _, prob := range problems {
					fmt.Fprintln(os.Stderr, "shape violation:", prob)
				}
				return fmt.Errorf("%d shape expectation(s) violated", len(problems))
			}
			fmt.Println("\nshape check: all paper-shape expectations hold")
		}

	case "ops":
		kind, err := core.ParseStoreKind(o.store)
		if err != nil {
			return err
		}
		res, err := core.RunOps(kind, o.dir+"/ops", p)
		if err != nil {
			return err
		}
		fmt.Print(core.FormatOps(res))

	case "clustering":
		res, err := core.RunClustering(o.dir+"/clustering", p)
		if err != nil {
			return err
		}
		fmt.Print(core.FormatClustering(res))

	case "evolution":
		kind, err := core.ParseStoreKind(o.store)
		if err != nil {
			return err
		}
		res, err := core.RunEvolution(kind, o.dir+"/evolution", p)
		if err != nil {
			return err
		}
		fmt.Print(core.FormatEvolution(res))

	case "sweep":
		var sizes []int
		for _, s := range strings.Split(o.pools, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad pool size %q", s)
			}
			sizes = append(sizes, n)
		}
		res, err := core.RunBufferSweep(o.dir+"/sweep", p, sizes)
		if err != nil {
			return err
		}
		fmt.Print(core.FormatSweep(res))

	case "crashtest", "failover":
		backends, err := parseCrashBackends(o.store)
		if err != nil {
			return err
		}
		if experiment == "failover" {
			// Only ostore ships a redo log to a standby; "all" means ostore.
			if len(backends) == 1 && backends[0] == crashtest.BackendTexas {
				return fmt.Errorf("failover: texas has no redo log to ship to a standby; use -store ostore")
			}
			backends = []crashtest.Backend{crashtest.BackendOStore}
		}
		start := o.seed
		if start == 0 {
			start = 1
		}
		runs := o.crashruns
		if runs <= 0 {
			runs = 1
		}
		for _, backend := range backends {
			outcomes := make(map[string]int)
			for seed := start; seed < start+int64(runs); seed++ {
				cfg := crashtest.Config{
					Backend: backend,
					Seed:    seed,
					Dir:     o.dir,
				}
				var res crashtest.Result
				var err error
				if experiment == "failover" {
					res, err = crashtest.RunFailover(cfg)
				} else {
					res, err = crashtest.Run(cfg)
				}
				if err != nil {
					return fmt.Errorf("crash-recovery invariant violated (replay: -experiment %s -store %s -seed %d -crashruns 1):\n%w",
						experiment, backend, seed, err)
				}
				if runs <= 20 {
					fmt.Println(res)
				}
				outcomes[res.Outcome]++
			}
			verdict := "recovered correctly"
			if experiment == "failover" {
				verdict = "served the committed prefix after promotion"
			}
			fmt.Printf("%s: %d seeded crash schedules %s (seeds %d..%d), outcomes %v\n",
				backend, runs, verdict, start, start+int64(runs)-1, outcomes)
		}

	case "recovery":
		return runRecovery(o)

	case "provenance":
		return runProvenance(o)

	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}

// parseCrashBackends maps -store spellings onto crashtest backends; the
// table10 names ("OStore", "Texas+TC") are accepted so the flag's default
// keeps working.
func parseCrashBackends(name string) ([]crashtest.Backend, error) {
	switch strings.TrimSuffix(strings.ToLower(name), "+tc") {
	case "ostore":
		return []crashtest.Backend{crashtest.BackendOStore}, nil
	case "texas":
		return []crashtest.Backend{crashtest.BackendTexas}, nil
	case "all", "both", "":
		return []crashtest.Backend{crashtest.BackendOStore, crashtest.BackendTexas}, nil
	default:
		return nil, fmt.Errorf("crashtest: unknown store %q (want ostore, texas, or all)", name)
	}
}
