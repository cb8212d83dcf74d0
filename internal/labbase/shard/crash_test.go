package shard

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"labflow/internal/fault"
	"labflow/internal/labbase"
	"labflow/internal/storage"
	"labflow/internal/storage/crashtest"
)

// The shard crash schedule: three on-disk shards opened as the crashtest
// rounds open their stores (crashtest.OpenInjected, crashtest.OpenPlain),
// only shard 1's media fault-injected, the crash point drawn (from the seed)
// over shard 1's I/O during the batch phase. Shard 1's media op stream is deterministic
// even though PutSteps fans out: the test issues one batch at a time, and
// within a batch only shard 1's goroutine touches shard 1's store.
//
// The invariants, per the cross-shard atomicity contract:
//   - The batch in flight at the crash commits on the surviving shards.
//   - Batches issued after the crash, routed to survivors only, succeed.
//   - Survivors close cleanly and reopen with exactly the committed model.
//   - The torn shard recovers per its backend's own contract: ostore
//     reopens with the committed step count or committed+pending (the
//     crash-in-Commit ambiguity), never anything between; texas either
//     refuses loudly (ErrTornStore / superblock) or reopens with exactly
//     the committed count.

const crashShards = 3

// shardCrashSeeds returns how many seeded schedules each backend runs.
func shardCrashSeeds(t *testing.T) int64 {
	if testing.Short() {
		return 15
	}
	return 60
}

// crashNames buckets deterministic material names by home shard: per[k][i]
// is the i-th name homed on shard k under the FNV-1a routing.
func crashNames(perShard int) [][]string {
	per := make([][]string, crashShards)
	for i := 0; ; i++ {
		name := fmt.Sprintf("cm-%d", i)
		k := ShardFor(name, crashShards)
		if len(per[k]) < perShard {
			per[k] = append(per[k], name)
		}
		full := 0
		for _, names := range per {
			full += len(names)
		}
		if full == crashShards*perShard {
			return per
		}
	}
}

// shardCrashRun is one seeded experiment: a count pass (never-failing
// injector) learns shard 1's setup and total op counts and verifies the
// clean path, then the crash pass replays the identical workload with the
// crash drawn over the batch-phase window.
func shardCrashRun(t *testing.T, be crashtest.Backend, seed int64, dir string) {
	t.Helper()
	names := crashNames(4)

	// Pass 1: count shard 1's I/O, fault-free, and verify the clean path.
	in := fault.NewInjector(fault.Plan{Seed: seed}) // CrashOp 0: count only
	paths := crashPaths(dir, be, seed, "count")
	setupOps, sh := runShardWorkload(t, be, paths, in, seed, names, 0)
	if sh.batchErr != nil {
		t.Fatalf("%s seed %d: fault-free batch failed: %v", be, seed, sh.batchErr)
	}
	totalOps := in.Ops()
	if totalOps <= setupOps {
		t.Fatalf("%s seed %d: batch phase produced no shard-1 I/O (%d..%d)", be, seed, setupOps, totalOps)
	}
	verifyShard(t, be, seed, paths, 0, sh, false, 0)
	verifyShard(t, be, seed, paths, 2, sh, false, 0)
	verifyShard(t, be, seed, paths, 1, sh, false, 0)

	// Pass 2: same workload, crash drawn from the seed over the batch phase.
	plan := fault.NewPlan(seed, totalOps-setupOps)
	plan.CrashOp += setupOps
	cin := fault.NewInjector(plan)
	cpaths := crashPaths(dir, be, seed, "crash")
	_, csh := runShardWorkload(t, be, cpaths, cin, seed, names, plan.CrashOp)
	if !cin.Crashed() {
		t.Fatalf("%s seed %d: plan crash@%d never fired (%d ops seen)", be, seed, plan.CrashOp, cin.Ops())
	}
	if csh.batchErr != nil && !crashed(csh.batchErr) {
		t.Fatalf("%s seed %d: batch failed without injected crash: %v", be, seed, csh.batchErr)
	}

	// Survivors reopen clean with exactly the committed model; the torn
	// shard recovers per its backend contract.
	verifyShard(t, be, seed, cpaths, 0, csh, false, 0)
	verifyShard(t, be, seed, cpaths, 2, csh, false, 0)
	verifyShard(t, be, seed, cpaths, 1, csh, true, csh.pending1)
}

func crashPaths(dir string, backend crashtest.Backend, seed int64, pass string) [crashShards]string {
	var paths [crashShards]string
	for k := range paths {
		paths[k] = filepath.Join(dir, fmt.Sprintf("%s-%s-%d-shard%d.db", backend, pass, seed, k))
	}
	return paths
}

// crashShadow is the workload's committed model, per shard.
type crashShadow struct {
	mats     [crashShards]uint64 // materials created (all during setup)
	steps    [crashShards]uint64 // step-batch parts confirmed committed
	pending1 uint64              // shard 1's part of the batch in flight at the crash
	batchErr error               // first batch error observed (nil in a clean run)
}

// crashed reports whether err is shard 1's injected crash. The error
// reaches the router as a server's reply, which carries fault.ErrCrashed's
// message but, like any sentinel the wire does not code, not its identity.
func crashed(err error) bool {
	return strings.Contains(err.Error(), fault.ErrCrashed.Error())
}

// runShardWorkload opens the three shards (shard 1 behind the injector),
// runs the seeded schema + materials setup and then the batch phase, and
// returns shard 1's op count at the end of setup plus the shadow model.
// The batch phase switches to survivors-only batches after the first
// injected crash and requires them to succeed.
func runShardWorkload(t *testing.T, be crashtest.Backend, paths [crashShards]string, in *fault.Injector, seed int64, names [][]string, crashOp uint64) (uint64, *crashShadow) {
	t.Helper()
	managers := make([]storage.Manager, crashShards)
	for k := range managers {
		var err error
		if k == 1 {
			managers[k], err = crashtest.OpenInjected(be, paths[k], in)
		} else {
			managers[k], err = crashtest.OpenPlain(be, paths[k], nil)
		}
		if err != nil {
			t.Fatalf("%s seed %d: open shard %d: %v", be, seed, k, err)
		}
	}
	db, err := Open(managers, labbase.DefaultOptions())
	if err != nil {
		t.Fatalf("%s seed %d: shard.Open: %v", be, seed, err)
	}
	// Abandon the torn shard on the way out: survivors close cleanly, the
	// fault layer keeps shard 1's media exactly as the crash left them.
	defer db.Close()

	sh := &crashShadow{}

	// Setup: broadcast schema, create materials on every shard. The crash
	// window starts after this phase, so it must complete.
	if err := db.Begin(); err != nil {
		t.Fatalf("%s seed %d: setup begin: %v", be, seed, err)
	}
	if _, err := db.DefineMaterialClass("sample", ""); err != nil {
		t.Fatalf("%s seed %d: define class: %v", be, seed, err)
	}
	if _, err := db.DefineState("received"); err != nil {
		t.Fatalf("%s seed %d: define state: %v", be, seed, err)
	}
	if _, _, err := db.DefineStepClass("measure", []labbase.AttrDef{
		{Name: "reading", Kind: labbase.KindInt},
	}); err != nil {
		t.Fatalf("%s seed %d: define step class: %v", be, seed, err)
	}
	oids := make([][]storage.OID, crashShards)
	for k, perShard := range names {
		for i, name := range perShard {
			oid, err := db.CreateMaterial("sample", name, "received", int64(i))
			if err != nil {
				t.Fatalf("%s seed %d: create %q: %v", be, seed, name, err)
			}
			oids[k] = append(oids[k], oid)
			sh.mats[k]++
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatalf("%s seed %d: setup commit: %v", be, seed, err)
	}
	setupOps := in.Ops()
	if crashOp != 0 && crashOp <= setupOps {
		t.Fatalf("%s seed %d: crash@%d landed inside setup (%d ops)", be, seed, crashOp, setupOps)
	}

	// Batch phase: seeded batches spanning all three shards until the
	// crash, then survivors-only batches that must keep succeeding.
	rng := rand.New(rand.NewSource(seed))
	const batches = 12
	shard1Down := false
	for b := 0; b < batches; b++ {
		var specs []labbase.StepSpec
		var parts [crashShards]uint64
		for k := 0; k < crashShards; k++ {
			if shard1Down && k == 1 {
				continue
			}
			n := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				specs = append(specs, labbase.StepSpec{
					Class:     "measure",
					ValidTime: int64(b)<<16 | int64(len(specs)),
					Materials: []storage.OID{oids[k][rng.Intn(len(oids[k]))]},
					Attrs:     []labbase.AttrValue{{Name: "reading", Value: labbase.Int64(int64(b))}},
				})
				parts[k]++
			}
		}
		_, err := db.PutSteps(specs)
		if err != nil {
			if shard1Down || !crashed(err) {
				// Survivors-only batches may not fail; neither may any
				// batch in a fault-free run.
				sh.batchErr = err
				return setupOps, sh
			}
			// First crash: the surviving shards' parts committed (their
			// transactions are independent); shard 1's part is in limbo.
			shard1Down = true
			sh.batchErr = err
			sh.pending1 = parts[1]
			sh.steps[0] += parts[0]
			sh.steps[2] += parts[2]
			continue
		}
		for k := range parts {
			sh.steps[k] += parts[k]
		}
	}
	return setupOps, sh
}

// verifyShard reopens one shard cold through its mapper and diffs it
// against the shadow model. For the torn shard (torn=true) the backend
// contract applies: ostore must reopen with committed or committed+pending
// steps; texas must refuse loudly or show exactly the committed count.
func verifyShard(t *testing.T, be crashtest.Backend, seed int64, paths [crashShards]string, k int, sh *crashShadow, torn bool, pending uint64) {
	t.Helper()
	m, err := crashtest.OpenPlain(be, paths[k], nil)
	if err != nil {
		if torn && be == crashtest.BackendTexas {
			return // loud refusal is texas's designed outcome; ostore must always reopen
		}
		t.Fatalf("%s seed %d: reopen shard %d: %v", be, seed, k, err)
	}
	db, err := labbase.Open(&mapper{inner: m, shard: k}, labbase.DefaultOptions())
	if err != nil {
		t.Fatalf("%s seed %d: labbase reopen shard %d: %v", be, seed, k, err)
	}
	defer db.Close()

	mats, err := db.CountMaterials("sample")
	if err != nil {
		t.Fatalf("%s seed %d: shard %d CountMaterials: %v", be, seed, k, err)
	}
	if mats != sh.mats[k] {
		t.Fatalf("%s seed %d: shard %d has %d materials, want %d", be, seed, k, mats, sh.mats[k])
	}
	steps, err := db.CountSteps("measure")
	if err != nil {
		t.Fatalf("%s seed %d: shard %d CountSteps: %v", be, seed, k, err)
	}
	if steps == sh.steps[k] {
		return
	}
	if torn && pending != 0 && steps == sh.steps[k]+pending {
		return // crash inside Commit after the durability point
	}
	t.Fatalf("%s seed %d: shard %d has %d steps, want %d (pending %d, torn=%v)",
		be, seed, k, steps, sh.steps[k], pending, torn)
}

// TestCrashScheduleShard runs the seeded one-shard-crashes schedules for
// both persistent backends. The name matches the `-run 'TestCrashSchedule'`
// fixed-seed pass in scripts/ci.sh and `make crashtest`.
func TestCrashScheduleShard(t *testing.T) {
	for _, be := range []crashtest.Backend{crashtest.BackendOStore, crashtest.BackendTexas} {
		t.Run(be.String(), func(t *testing.T) {
			dir := t.TempDir()
			for seed := int64(1); seed <= shardCrashSeeds(t); seed++ {
				shardCrashRun(t, be, seed, dir)
			}
		})
	}
}
