package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"

	"labflow/internal/metrics"
	"labflow/internal/storage"
	"labflow/internal/storage/ostore"
	"labflow/internal/storage/repl"
	"labflow/internal/storage/texas"
)

// The recovery experiment (BENCH_6) measures the two bounded-recovery
// numbers DESIGN §8 promises:
//
//   - recovery time: how long a cold reopen takes after a primary dies
//     without closing, as a function of the checkpoint interval. The
//     workload commits, then the manager is simply abandoned — on-disk
//     state is exactly what a SIGKILL after the last ack leaves: ostore's
//     redo log untruncated, texas's dirty marker set. The reopen then does
//     real recovery work (ostore replays the post-checkpoint delta; texas
//     restores its last snapshot), and the interval bounds it.
//
//   - failover time: how long promoting a warm standby takes — Promote
//     (journal drained into the page backing, cursor finalized) plus
//     opening the real backend over the standby's media. The wire hop and
//     the router's health-probe latency sit on top of this in a live
//     cluster; this measures the storage floor.
//
// Timings use metrics.Sample wall time, matching the benchmark tables.

// recoveryCell is one (backend, checkpoint interval) reopen measurement.
type recoveryCell struct {
	Backend         string
	CheckpointEvery int
	Commits         int
	Outcome         string
	ReplayedRecords int
	RestoredLSN     uint64
	RecoveryMS      float64
}

// failoverCell is one backend's promote-and-open measurement.
type failoverCell struct {
	Backend        string
	Commits        int
	ShippedLSN     uint64
	PromoteMS      float64
	FollowerOpenMS float64
	FailoverMS     float64
}

// runRecovery measures recovery and failover time for both persistent
// backends and prints the BENCH_6 columns.
func runRecovery(o options) error {
	commits := o.crashruns // reuse: the flag is "how many units", here commits
	if commits <= 0 || commits == 100 {
		// The -crashruns default is tuned for crashtest, not here. 250
		// lands mid-interval for both measured intervals (251 LSNs with
		// store creation), so the reopen has a real delta to replay.
		commits = 250
	}
	fmt.Printf("recovery and failover time, %d commits, 4 x 256-byte allocations per commit\n\n", commits)

	for _, cell := range []struct {
		backend string
		every   int
	}{
		// ostore 1 is the historical configuration: every commit retires
		// its record, so reopen replays at most one. texas 0 is ITS
		// historical configuration: no snapshots, a torn store stays torn.
		{"ostore", 1}, {"ostore", 8}, {"ostore", 64},
		{"texas", 0}, {"texas", 8}, {"texas", 64},
	} {
		c, err := measureRecovery(o.dir, cell.backend, cell.every, commits)
		if err != nil {
			return fmt.Errorf("recovery %s ckpt=%d: %w", cell.backend, cell.every, err)
		}
		fmt.Printf("  %-7s ckpt=%-3d  %-22s replayed=%-4d %8.2f ms\n",
			c.Backend, c.CheckpointEvery, c.Outcome, c.ReplayedRecords, c.RecoveryMS)
	}

	fmt.Println()
	for _, backend := range []string{"ostore", "texas"} {
		c, err := measureFailover(o.dir, backend, commits)
		if err != nil {
			return fmt.Errorf("failover %s: %w", backend, err)
		}
		fmt.Printf("  %-7s failover  promote=%.2f ms + open=%.2f ms = %8.2f ms (lsn %d)\n",
			c.Backend, c.PromoteMS, c.FollowerOpenMS, c.FailoverMS, c.ShippedLSN)
	}
	return nil
}

// commitLoad runs the deterministic commit workload against m: commits
// transactions, each allocating four 256-byte history objects.
func commitLoad(m storage.Manager, commits int) error {
	rng := rand.New(rand.NewSource(6))
	buf := make([]byte, 256)
	for i := 0; i < commits; i++ {
		if err := m.Begin(); err != nil {
			return err
		}
		for j := 0; j < 4; j++ {
			rng.Read(buf)
			if _, err := m.Allocate(storage.SegHistory, buf); err != nil {
				return err
			}
		}
		if err := m.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// openBackend opens one persistent backend over path. For ostore, every
// is the record-retirement interval (1 = historical truncate-per-commit,
// 0 = the package default); for texas it is the snapshot interval (0 =
// historical detect-only, no snapshots).
func openBackend(backend, path string, every int, restore bool, rec *repl.RecoveryInfo, ship repl.Shipper) (storage.Manager, error) {
	switch backend {
	case "ostore":
		return ostore.Open(ostore.Options{
			Path: path, PoolPages: 128,
			CheckpointEvery: every, Recovery: rec, Shipper: ship,
		})
	default:
		return texas.Open(texas.Options{
			Path: path, MaxResidentPages: 128,
			CheckpointEvery: every, Restore: restore, Recovery: rec, Shipper: ship,
		})
	}
}

// measureRecovery builds a store, abandons it mid-life (no Close — the
// SIGKILL shape), and times the recovering reopen.
func measureRecovery(dir, backend string, every, commits int) (recoveryCell, error) {
	cell := recoveryCell{Backend: backend, CheckpointEvery: every, Commits: commits}
	path := filepath.Join(dir, fmt.Sprintf("rec-%s-%d.db", backend, every))
	m, err := openBackend(backend, path, every, false, nil, nil)
	if err != nil {
		return cell, err
	}
	if err := commitLoad(m, commits); err != nil {
		m.Close()
		return cell, err
	}
	// Abandon without Close: the descriptors leak for the life of this
	// process, which is the point — nothing may clean up the media.

	var rec repl.RecoveryInfo
	before := metrics.Sample()
	m2, err := openBackend(backend, path, every, true, &rec, nil)
	cell.RecoveryMS = float64(metrics.Sample().Sub(before).Wall.Nanoseconds()) / 1e6
	if err != nil {
		if backend == "texas" && errors.Is(err, texas.ErrTornStore) {
			if every <= 0 {
				// The pre-checkpoint dead end, kept as a column on purpose:
				// no snapshots means a torn texas store stays torn.
				cell.Outcome = "torn-unrecoverable"
				return cell, nil
			}
			if commits+1 < every {
				// Crash before the first snapshot interval elapsed: there is
				// nothing to restore yet, same dead end as every=0. The
				// interval only bounds recovery once it has fired once.
				cell.Outcome = "torn-before-first-snapshot"
				return cell, nil
			}
		}
		return cell, err
	}
	defer m2.Close()
	cell.ReplayedRecords = rec.Replayed
	switch {
	case rec.Restored:
		cell.Outcome = "restored-checkpoint"
		cell.RestoredLSN = rec.RestoredLSN
	case rec.Replayed > 0:
		cell.Outcome = "replayed-delta"
	default:
		cell.Outcome = "clean"
	}
	if every > 0 && rec.Replayed > every {
		return cell, fmt.Errorf("replayed %d records past the %d-commit checkpoint bound", rec.Replayed, every)
	}
	return cell, nil
}

// measureFailover runs a primary shipping to an in-process warm standby,
// abandons the primary, and times Promote plus the follower's open.
func measureFailover(dir, backend string, commits int) (failoverCell, error) {
	cell := failoverCell{Backend: backend, Commits: commits}
	primaryPath := filepath.Join(dir, fmt.Sprintf("fo-%s-primary.db", backend))
	standbyPath := filepath.Join(dir, fmt.Sprintf("fo-%s-standby.db", backend))
	st, err := repl.OpenFileStandby(standbyPath, 8)
	if err != nil {
		return cell, err
	}
	m, err := openBackend(backend, primaryPath, 8, false, nil, st)
	if err != nil {
		st.Close()
		return cell, err
	}
	if err := commitLoad(m, commits); err != nil {
		m.Close()
		st.Close()
		return cell, err
	}
	cell.ShippedLSN = st.LastLSN()
	// Abandon the primary (no Close): only the standby survives.

	before := metrics.Sample()
	if err := st.Promote(); err != nil {
		return cell, fmt.Errorf("promote: %w", err)
	}
	mid := metrics.Sample()
	var rec repl.RecoveryInfo
	f, err := openBackend(backend, standbyPath, 8, false, &rec, nil)
	after := metrics.Sample()
	if err != nil {
		return cell, fmt.Errorf("open promoted follower: %w", err)
	}
	defer f.Close()
	if rec.Replayed != 0 {
		return cell, fmt.Errorf("follower replayed %d records; Promote should have checkpointed", rec.Replayed)
	}
	if _, err := f.Root(); err != nil {
		return cell, fmt.Errorf("follower root: %w", err)
	}
	cell.PromoteMS = float64(mid.Sub(before).Wall.Nanoseconds()) / 1e6
	cell.FollowerOpenMS = float64(after.Sub(mid).Wall.Nanoseconds()) / 1e6
	cell.FailoverMS = float64(after.Sub(before).Wall.Nanoseconds()) / 1e6
	return cell, nil
}
