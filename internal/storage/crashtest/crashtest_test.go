package crashtest

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"labflow/internal/storage/repl"
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

// runSeeds runs round r's fixed-seed schedules on backend until it has
// reached everything the round must reach, and fails on the first seed that
// breaks an invariant.
func runSeeds(t *testing.T, backend Backend, r round) {
	t.Helper()
	dir := t.TempDir()
	outcomes := make(map[string]int)
	windows := make(map[string]int)
	seed := int64(FixedSeedBase)
	run := func() {
		res, err := drive(Config{Backend: backend, Seed: seed, Dir: dir}, r)
		if err != nil {
			t.Fatalf("replay with: go run ./cmd/labflow -experiment %s -store %s -seed %d -crashruns 1\n%v",
				r.name, backend, seed, err)
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
	t.Logf("%s %s outcomes over %d seeds: %v", backend, r.name, seed-FixedSeedBase, outcomes)
	t.Logf("%s %s named windows hit: %v", backend, r.name, windows)
	for _, w := range requiredWindows {
		if missing(w) {
			t.Errorf("no seed in %d crashed inside the %s window; add seeds until one does", seed-FixedSeedBase, w)
		}
	}
	if o := r.outcome + "-committed"; outcomes[o] == 0 {
		t.Errorf("no seed in %d reached the %s outcome; schedule space too narrow", seed-FixedSeedBase, o)
	}
}

func TestCrashScheduleOStore(t *testing.T) { runSeeds(t, BackendOStore, recovery) }

func TestCrashScheduleTexas(t *testing.T) { runSeeds(t, BackendTexas, recovery) }

// TestCrashScheduleFailover is the failover round over the same seeds: the
// promoted standby must serve the committed prefix, and the round must reach
// every window the recovery round does.
func TestCrashScheduleFailover(t *testing.T) { runSeeds(t, BackendOStore, failover) }

// TestFailoverRefusesTexas: texas has no redo log, so there is nothing to
// ship and no standby to promote.
func TestFailoverRefusesTexas(t *testing.T) {
	if _, err := RunFailover(Config{Backend: BackendTexas, Seed: 1, Dir: t.TempDir()}); err == nil {
		t.Fatal("RunFailover accepted texas")
	}
}

// TestReplayBound holds each round's survivor to its replay bound: a
// reopened primary may replay one checkpoint interval and no more, and a
// promoted standby nothing at all. No correct store exceeds either bound,
// so the schedules alone would never notice one loosened.
func TestReplayBound(t *testing.T) {
	for _, c := range []struct {
		r        round
		replayed int
		ok       bool
	}{
		{recovery, ckptEvery, true},
		{recovery, ckptEvery + 1, false},
		{failover, 0, true},
		{failover, 1, false},
	} {
		err := c.r.checkReplay(repl.RecoveryInfo{Replayed: c.replayed})
		if (err == nil) != c.ok {
			t.Errorf("%s survivor replaying %d records: err = %v, want ok = %v", c.r.name, c.replayed, err, c.ok)
		}
	}
}

// goldenSeeds is how many seeds each round of TestResultString pins.
const goldenSeeds = 40

// TestResultString pins the replay line format the harness reports seeds
// in, and the schedules behind it: the Result.String() line of seeds
// 1..goldenSeeds for the ostore and texas recovery rounds and the ostore
// failover round lands in testdata/results.golden. Any change to the I/O a
// store issues renumbers the crash ops, and any change to the harness's
// verdicts moves an outcome; a change meant to keep both must leave the file
// byte-identical. Regenerate deliberately with UPDATE_GOLDEN=1.
func TestResultString(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	for _, round := range []struct {
		name    string
		backend Backend
		run     func(Config) (Result, error)
	}{
		{"Run", BackendOStore, Run},
		{"Run", BackendTexas, Run},
		{"RunFailover", BackendOStore, RunFailover},
	} {
		fmt.Fprintf(&b, "# %s %s\n", round.name, round.backend)
		for seed := int64(1); seed <= goldenSeeds; seed++ {
			res, err := round.run(Config{Backend: round.backend, Seed: seed, Dir: dir})
			if err != nil {
				t.Fatalf("%s %s seed %d: %v", round.name, round.backend, seed, err)
			}
			fmt.Fprintln(&b, res)
		}
	}

	got := b.String()
	path := filepath.Join("testdata", "results.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("results drifted from golden at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("results drifted from golden: %d lines, want %d", len(gl), len(wl))
	}
}

// TestRunDeterministic replays one seed twice in one shared Dir and requires
// the identical verdict — the replayability contract behind seed-based
// failure reports, which must hold however often a Dir is reused.
func TestRunDeterministic(t *testing.T) {
	for _, backend := range []Backend{BackendOStore, BackendTexas} {
		dir := t.TempDir()
		a, errA := Run(Config{Backend: backend, Seed: 7, Dir: dir})
		b, errB := Run(Config{Backend: backend, Seed: 7, Dir: dir})
		if errA != nil || errB != nil {
			t.Fatalf("%s: seed 7: %v / %v", backend, errA, errB)
		}
		if a != b {
			t.Fatalf("%s: replay result diverged:\n%+v\n%+v", backend, a, b)
		}
	}
}

// TestFailoverDeterministic replays one seed twice in one shared Dir and
// requires the identical verdict, as for Run.
func TestFailoverDeterministic(t *testing.T) {
	dir := t.TempDir()
	a, errA := RunFailover(Config{Backend: BackendOStore, Seed: 11, Dir: dir})
	b, errB := RunFailover(Config{Backend: BackendOStore, Seed: 11, Dir: dir})
	if errA != nil || errB != nil {
		t.Fatalf("seed 11: %v / %v", errA, errB)
	}
	if a != b {
		t.Fatalf("replay result diverged:\n%+v\n%+v", a, b)
	}
}
