package crashtest

import (
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

func runSeeds(t *testing.T, backend Backend) {
	t.Helper()
	dir := t.TempDir()
	outcomes := make(map[string]int)
	windows := make(map[string]int)
	for seed := int64(FixedSeedBase); seed < FixedSeedBase+seedCount(t); seed++ {
		res, err := Run(Config{Backend: backend, Seed: seed, Dir: dir})
		if err != nil {
			t.Fatalf("replay with: go run ./cmd/labflow -experiment crashtest -store %s -seed %d -crashruns 1\n%v",
				backend, seed, err)
		}
		outcomes[res.Outcome]++
		windows[res.Window]++
	}
	t.Logf("%s outcomes over %d seeds: %v", backend, seedCount(t), outcomes)
	if backend != BackendOStore {
		return
	}
	// The recycled log's two new crash windows must actually be hit, or the
	// round proves nothing about them.
	t.Logf("%s recycled-log windows hit: %v", backend, windows)
	for _, w := range []string{WindowCursorRewrite, WindowRecordOverlay} {
		if windows[w] == 0 {
			t.Errorf("no seed crashed inside the %s window; add seeds until one does", w)
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
