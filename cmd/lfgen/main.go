// Command lfgen generates and replays LabFlow-1 workload traces: the exact
// event stream (JSON lines) the benchmark applies to a database. Traces make
// the workload portable — archive them, diff them across seeds, or drive
// another system with them.
//
// Usage:
//
//	lfgen -scale 60 -seed 1 -out workload.jsonl          # generate
//	lfgen -replay workload.jsonl -store texas+tc -path db # replay
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"labflow/internal/core"
)

func main() {
	var (
		out     = flag.String("out", "", "trace output file (default stdout)")
		scale   = flag.Int("scale", 0, "override BaseClones (the 1X unit)")
		tclones = flag.Int("tclones", 0, "override tclones per clone")
		seed    = flag.Int64("seed", 0, "override the workload seed")
		halves  = flag.Int("halves", 2, "stream length in 0.5X units (2 = 1.0X)")
		replay  = flag.String("replay", "", "replay this trace file instead of generating")
		store   = flag.String("store", "texas+tc", "replay target store kind")
		path    = flag.String("path", "", "replay target directory")
		txn     = flag.Int("txn", 100, "replay events per transaction")
	)
	flag.Parse()

	p := core.DefaultParams()
	if *scale > 0 {
		p.BaseClones = *scale
	}
	if *tclones > 0 {
		p.TclonesPerClone = *tclones
	}
	if *seed != 0 {
		p.Seed = *seed
	}

	if *replay != "" {
		if err := doReplay(*replay, *store, *path, *txn, p); err != nil {
			log.Fatalf("lfgen: %v", err)
		}
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("lfgen: %v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatalf("lfgen: close: %v", err)
			}
		}()
		w = f
	}
	n, err := core.GenerateTrace(w, p, *halves)
	if err != nil {
		log.Fatalf("lfgen: %v", err)
	}
	fmt.Fprintf(os.Stderr, "lfgen: %d events (%d clones at seed %d)\n",
		n, p.BaseClones*(*halves)/2, p.Seed)
}

func doReplay(file, storeName, path string, txn int, p core.Params) error {
	kind, err := core.ParseStoreKind(storeName)
	if err != nil {
		return err
	}
	if path == "" {
		tmp, err := os.MkdirTemp("", "lfgen-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		path = tmp
	}
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()

	db, sm, err := core.OpenDB(kind, path, p)
	if err != nil {
		return err
	}
	defer db.Close()

	stats, err := core.ReplayTrace(f, db, txn)
	if err != nil {
		return err
	}
	st := sm.Stats()
	fmt.Printf("replayed %d events: %d materials, %d sets, %d steps, %d state changes\n",
		stats.Events, stats.Materials, stats.Sets, stats.Steps, stats.States)
	fmt.Printf("store %s: %d faults, %d bytes\n", sm.Name(), st.Faults, st.SizeBytes)
	return nil
}
