package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"

	"labflow/internal/storage"
	"labflow/internal/storage/ostore"
	"labflow/internal/storage/repl"
	"labflow/internal/storage/texas"
)

// The recovery experiment (BENCH_6) checks the two bounded-recovery
// promises of DESIGN §8 and prints what each reopen did:
//
//   - bounded replay: a cold reopen after a primary dies without closing
//     replays at most one checkpoint interval of records. The workload
//     commits, then the manager is simply abandoned — on-disk state is
//     exactly what a SIGKILL after the last ack leaves: ostore's redo log
//     untruncated, texas's dirty marker set. The ostore reopen then replays
//     the post-checkpoint delta, and the interval bounds it; texas, the
//     paper's log-less heap, refuses the torn store.
//
//   - failover: promoting an ostore warm standby (journal drained into the
//     page backing, cursor finalized) leaves the store over the standby's
//     media with nothing to replay.
//
// Every line printed is a function of the workload, which is fixed.

// recoveryCommits lands mid-interval for both measured checkpoint intervals
// (251 LSNs with store creation), so the reopen has a real delta to replay.
const recoveryCommits = 250

// recoveryCell is one (backend, checkpoint interval) reopen.
type recoveryCell struct {
	Backend         string
	CheckpointEvery int
	Outcome         string
	ReplayedRecords int
}

// failoverCell is one promote-and-open.
type failoverCell struct {
	ShippedLSN       uint64
	FollowerReplayed int
}

// runRecovery reopens both persistent backends after an abandoned run and
// promotes an ostore standby, and prints the BENCH_6 rows.
func runRecovery(o options) error {
	fmt.Printf("recovery and failover, %d commits, 4 x 256-byte allocations per commit\n\n", recoveryCommits)

	for _, cell := range []struct {
		backend string
		every   int
	}{
		// ostore 1 is the historical configuration: every commit retires
		// its record, so reopen replays at most one. texas has no log and
		// no checkpoints: a torn store stays torn.
		{"ostore", 1}, {"ostore", 8}, {"ostore", 64},
		{"texas", 0},
	} {
		c, err := measureRecovery(o.dir, cell.backend, cell.every)
		if err != nil {
			return fmt.Errorf("recovery %s ckpt=%d: %w", cell.backend, cell.every, err)
		}
		fmt.Printf("  %-7s ckpt=%-3d  %-22s replayed=%d\n",
			c.Backend, c.CheckpointEvery, c.Outcome, c.ReplayedRecords)
	}

	fmt.Println()
	c, err := measureFailover(o.dir)
	if err != nil {
		return fmt.Errorf("failover ostore: %w", err)
	}
	fmt.Printf("  %-7s failover  shipped lsn %d, promoted follower replayed=%d\n",
		"ostore", c.ShippedLSN, c.FollowerReplayed)
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

// openOStore opens ostore over path with every as its record-retirement
// interval (1 = historical truncate-per-commit, 0 = the package default).
func openOStore(path string, every int, rec *repl.RecoveryInfo, ship repl.Shipper) (storage.Manager, error) {
	return ostore.Open(ostore.Options{
		Path: path, PoolPages: 128,
		CheckpointEvery: every, Recovery: rec, Shipper: ship,
	})
}

// measureRecovery builds a store, abandons it mid-life (no Close — the
// SIGKILL shape), and reopens it.
func measureRecovery(dir, backend string, every int) (recoveryCell, error) {
	cell := recoveryCell{Backend: backend, CheckpointEvery: every}
	path := filepath.Join(dir, fmt.Sprintf("rec-%s-%d.db", backend, every))
	var rec repl.RecoveryInfo
	open := func() (storage.Manager, error) { return openOStore(path, every, &rec, nil) }
	if backend == "texas" {
		open = func() (storage.Manager, error) { return texas.Open(texas.Options{Path: path, MaxResidentPages: 128}) }
	}
	m, err := open()
	if err != nil {
		return cell, err
	}
	if err := commitLoad(m, recoveryCommits); err != nil {
		m.Close()
		return cell, err
	}
	// Abandon without Close: the descriptors leak for the life of this
	// process, which is the point — nothing may clean up the media.

	m2, err := open()
	if err != nil {
		if backend == "texas" && errors.Is(err, texas.ErrTornStore) {
			// The paper's contract, kept as a column on purpose: no log
			// means a torn texas store stays torn.
			cell.Outcome = "torn-unrecoverable"
			return cell, nil
		}
		return cell, err
	}
	defer m2.Close()
	cell.ReplayedRecords = rec.Replayed
	cell.Outcome = "clean"
	if rec.Replayed > 0 {
		cell.Outcome = "replayed-delta"
	}
	if every > 0 && rec.Replayed > every {
		return cell, fmt.Errorf("replayed %d records past the %d-commit checkpoint bound", rec.Replayed, every)
	}
	return cell, nil
}

// measureFailover runs an ostore primary shipping to an in-process warm
// standby, abandons the primary, promotes the standby and opens the
// follower over it.
func measureFailover(dir string) (failoverCell, error) {
	var cell failoverCell
	primaryPath := filepath.Join(dir, "fo-ostore-primary.db")
	standbyPath := filepath.Join(dir, "fo-ostore-standby.db")
	st, err := repl.OpenFileStandby(standbyPath, 8)
	if err != nil {
		return cell, err
	}
	m, err := openOStore(primaryPath, 8, nil, st)
	if err != nil {
		st.Close()
		return cell, err
	}
	if err := commitLoad(m, recoveryCommits); err != nil {
		m.Close()
		st.Close()
		return cell, err
	}
	cell.ShippedLSN = st.LastLSN()
	// Abandon the primary (no Close): only the standby survives.

	if err := st.Promote(); err != nil {
		return cell, fmt.Errorf("promote: %w", err)
	}
	var rec repl.RecoveryInfo
	f, err := openOStore(standbyPath, 8, &rec, nil)
	if err != nil {
		return cell, fmt.Errorf("open promoted follower: %w", err)
	}
	defer f.Close()
	cell.FollowerReplayed = rec.Replayed
	if rec.Replayed != 0 {
		return cell, fmt.Errorf("follower replayed %d records; Promote should have checkpointed", rec.Replayed)
	}
	if _, err := f.Root(); err != nil {
		return cell, fmt.Errorf("follower root: %w", err)
	}
	return cell, nil
}
