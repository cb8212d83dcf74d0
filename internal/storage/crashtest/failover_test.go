package crashtest

import (
	"testing"
)

func TestFailoverScheduleOStore(t *testing.T) {
	dir := t.TempDir()
	outcomes := make(map[string]int)
	windows := make(map[string]int)
	seed := int64(FixedSeedBase)
	run := func() {
		res, err := RunFailover(Config{Backend: BackendOStore, Seed: seed, Dir: dir})
		if err != nil {
			t.Fatalf("replay with: go run ./cmd/labflow -experiment failover -store ostore -seed %d -crashruns 1\n%v",
				seed, err)
		}
		outcomes[res.Outcome]++
		windows[res.Window]++
		seed++
	}
	for seed < FixedSeedBase+seedCount(t) {
		run()
	}
	// A primary with a shipper logs a wide record in chunks like any other,
	// so the round runs on until a crash lands between two of them.
	for windows[WindowRecordChunk] == 0 && seed < FixedSeedBase+maxOStoreSeeds {
		run()
	}
	t.Logf("ostore failover outcomes over %d seeds: %v", seed-FixedSeedBase, outcomes)
	t.Logf("ostore failover named windows hit: %v", windows)
	if outcomes["follower-committed"] == 0 {
		t.Error("no seed exercised the follower-committed path; schedule space too narrow")
	}
	if windows[WindowRecordChunk] == 0 {
		t.Errorf("no seed in %d crashed inside the %s window; add seeds until one does", seed-FixedSeedBase, WindowRecordChunk)
	}
}

// TestFailoverRefusesTexas: texas has no redo log, so there is nothing to
// ship and no standby to promote.
func TestFailoverRefusesTexas(t *testing.T) {
	if _, err := RunFailover(Config{Backend: BackendTexas, Seed: 1, Dir: t.TempDir()}); err == nil {
		t.Fatal("RunFailover accepted texas")
	}
}

// TestFailoverDeterministic replays one seed and requires the identical
// verdict, as for Run.
func TestFailoverDeterministic(t *testing.T) {
	a, errA := RunFailover(Config{Backend: BackendOStore, Seed: 11, Dir: t.TempDir()})
	b, errB := RunFailover(Config{Backend: BackendOStore, Seed: 11, Dir: t.TempDir()})
	if (errA == nil) != (errB == nil) {
		t.Fatalf("replay verdict diverged: %v vs %v", errA, errB)
	}
	if a != b {
		t.Fatalf("replay result diverged:\n%+v\n%+v", a, b)
	}
}
