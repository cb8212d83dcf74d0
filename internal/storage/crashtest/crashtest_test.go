package crashtest

import (
	"slices"
	"testing"
)

// seedsPerBackend is the number of seeded crash schedules each backend must
// survive. scripts/ci.sh runs the full count under -race; -short trims it
// for interactive runs.
const seedsPerBackend = 200

func seedCount(t *testing.T) int64 {
	if testing.Short() {
		return 40
	}
	return seedsPerBackend
}

// FixedSeedBase anchors the deterministic CI round; any failure reports the
// absolute seed to replay with `labflow -experiment crashtest -seed N`.
const FixedSeedBase = 1

// maxTexasSeeds caps how far the texas round runs past seedCount looking
// for an outcome it must hit.
const maxTexasSeeds = 2000

// maxOStoreSeeds caps how far the ostore round runs past seedCount looking
// for a named window it must hit.
const maxOStoreSeeds = 1000

// requiredWindows are the named crash windows some ostore seed must land
// in: the recycled log's two (in-place cursor rewrite, record over a
// retired record), the pipelined commit's two (a commit sealed behind the
// flush, and one that began by updating a page the flush had still to
// write), and the streamed record's.
var requiredWindows = []string{WindowCursorRewrite, WindowRecordOverlay, WindowSealedBehindFlush, WindowUpdateSealedPage, WindowRecordChunk}

func runSeeds(t *testing.T, backend Backend) {
	t.Helper()
	dir := t.TempDir()
	outcomes := make(map[string]int)
	windows := make(map[string]int)
	seed := int64(FixedSeedBase)
	run := func() {
		res, err := Run(Config{Backend: backend, Seed: seed, Dir: dir})
		if err != nil {
			t.Fatalf("replay with: go run ./cmd/labflow -experiment crashtest -store %s -seed %d -crashruns 1\n%v",
				backend, seed, err)
		}
		outcomes[res.Outcome]++
		windows[res.Window]++
		seed++
	}
	for seed < FixedSeedBase+seedCount(t) {
		run()
	}
	if backend == BackendTexas {
		// The log-less contract has two halves, and the round proves nothing
		// unless it reaches both: a torn store is refused, and a store the
		// crash left clean reopens at exactly its committed state. The
		// second needs the crash inside Close's marker clear — one or two
		// ops of a few hundred — so the round runs on until both are hit.
		for (outcomes["torn-detected"] == 0 || outcomes["recovered-committed"] == 0) &&
			seed < FixedSeedBase+maxTexasSeeds {
			run()
		}
		t.Logf("%s outcomes over %d seeds: %v", backend, seed-FixedSeedBase, outcomes)
		for _, o := range []string{"torn-detected", "recovered-committed"} {
			if outcomes[o] == 0 {
				t.Errorf("no seed in %d reached the %s outcome", seed-FixedSeedBase, o)
			}
		}
		return
	}
	// The windows must actually be hit, or the round proves nothing about
	// them. Each is a few ops of a few hundred, so the round runs on until
	// every one is.
	missing := func(w string) bool { return windows[w] == 0 }
	for slices.ContainsFunc(requiredWindows, missing) && seed < FixedSeedBase+maxOStoreSeeds {
		run()
	}
	t.Logf("%s outcomes over %d seeds: %v", backend, seed-FixedSeedBase, outcomes)
	t.Logf("%s named windows hit: %v", backend, windows)
	for _, w := range requiredWindows {
		if missing(w) {
			t.Errorf("no seed in %d crashed inside the %s window; add seeds until one does", seed-FixedSeedBase, w)
		}
	}
}

func TestCrashScheduleOStore(t *testing.T) { runSeeds(t, BackendOStore) }

func TestCrashScheduleTexas(t *testing.T) { runSeeds(t, BackendTexas) }

// TestResultString pins the replay line format the harness reports seeds in.
func TestResultString(t *testing.T) {
	res, err := Run(Config{Backend: BackendOStore, Seed: 42, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("seed 42: %v", err)
	}
	if res.Seed != 42 || res.TotalOps == 0 || res.CrashOp == 0 || res.CrashOp > res.TotalOps {
		t.Fatalf("implausible result: %+v", res)
	}
	if s := res.String(); s == "" {
		t.Fatal("empty result string")
	}
}

// TestRunDeterministic replays one seed and requires the identical verdict —
// the replayability contract behind seed-based failure reports.
func TestRunDeterministic(t *testing.T) {
	for _, backend := range []Backend{BackendOStore, BackendTexas} {
		a, errA := Run(Config{Backend: backend, Seed: 7, Dir: t.TempDir()})
		b, errB := Run(Config{Backend: backend, Seed: 7, Dir: t.TempDir()})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: replay verdict diverged: %v vs %v", backend, errA, errB)
		}
		if a != b {
			t.Fatalf("%s: replay result diverged:\n%+v\n%+v", backend, a, b)
		}
	}
}
