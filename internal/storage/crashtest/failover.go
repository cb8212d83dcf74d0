package crashtest

import (
	"errors"
	"fmt"
	"path/filepath"

	"labflow/internal/fault"
	"labflow/internal/storage"
	"labflow/internal/storage/ostore"
	"labflow/internal/storage/repl"
)

// RunFailover is the warm-standby counterpart of Run: the same seeded
// workload drives a fault-injected primary whose commits ship to an
// in-process repl.Standby over clean media (the standby is a different
// "machine" — the primary's crash plan never touches it). When the primary
// dies, the harness promotes the standby, opens the backend over the
// standby's files, and requires the follower to serve exactly the committed
// prefix — every transaction whose Commit returned, nothing in between.
//
// The one sanctioned exception mirrors Run's: a crash inside a commit's flush
// may have shipped the record before the client could hear the ack, in which
// case the follower serves exactly the state an in-flight transaction would
// leave instead (Outcome "follower-pending").
//
// Only ostore ships: texas has no log, so RunFailover refuses it.
func RunFailover(cfg Config) (Result, error) {
	if cfg.Backend != BackendOStore {
		return Result{Backend: cfg.Backend, Seed: cfg.Seed}, fmt.Errorf("failover: %s has no redo log to ship; only ostore runs a standby", cfg.Backend)
	}
	if cfg.Txns <= 0 {
		cfg.Txns = 20
	}
	if cfg.OpsPerTxn <= 0 {
		cfg.OpsPerTxn = 6
	}
	res := Result{Backend: cfg.Backend, Seed: cfg.Seed}

	totalOps, err := failoverCountPass(cfg)
	if err != nil {
		return res, fmt.Errorf("failover %s seed %d (count pass): %w", cfg.Backend, cfg.Seed, err)
	}
	res.TotalOps = totalOps

	plan := fault.NewPlan(cfg.Seed, totalOps)
	res.CrashOp = plan.CrashOp
	res.Tear = plan.Tear
	if err := failoverCrashPass(cfg, plan, &res); err != nil {
		return res, fmt.Errorf("failover %s seed %d (crash@%d tear=%s failed=%s): %w",
			cfg.Backend, cfg.Seed, plan.CrashOp, plan.Tear, res.FailedCall, err)
	}
	return res, nil
}

// openStandby opens the follower for one pass: its page backing at path and
// its journal at path+".log", checkpointing every ckptEvery records.
func openStandby(path string) (*repl.Standby, error) {
	return repl.OpenFileStandby(path, ckptEvery)
}

// failoverCountPass learns the primary's I/O op count with shipping active.
// Shipping itself performs no primary I/O, but running the paired
// configuration end to end also verifies the fault-free promote path before
// any crash schedule relies on it.
func failoverCountPass(cfg Config) (uint64, error) {
	dbPath := filepath.Join(cfg.Dir, fmt.Sprintf("%s-fo-count-%d.db", cfg.Backend, cfg.Seed))
	standbyPath := filepath.Join(cfg.Dir, fmt.Sprintf("%s-fo-count-standby-%d.db", cfg.Backend, cfg.Seed))
	st, err := openStandby(standbyPath)
	if err != nil {
		return 0, err
	}
	in := fault.NewInjector(fault.Plan{Seed: cfg.Seed}) // CrashOp 0: count only
	m, g, err := openInjected(cfg, dbPath, in, st)
	if err != nil {
		st.Close()
		return 0, fmt.Errorf("open: %w", err)
	}
	w := newWorkload(cfg.Seed)
	if call, err := w.run(m, g, cfg.Txns, cfg.OpsPerTxn); err != nil {
		m.Close()
		st.Close()
		return 0, fmt.Errorf("fault-free workload failed at %s: %w", call, err)
	}
	if err := m.Close(); err != nil {
		st.Close()
		return 0, fmt.Errorf("clean close: %w", err)
	}
	total := in.Ops()

	if err := st.Promote(); err != nil {
		return 0, fmt.Errorf("promote: %w", err)
	}
	f, rec, err := openFollower(standbyPath)
	if err != nil {
		return 0, fmt.Errorf("open promoted follower: %w", err)
	}
	defer f.Close()
	if rec.Replayed != 0 {
		return 0, fmt.Errorf("promoted follower replayed %d records; Promote should have checkpointed", rec.Replayed)
	}
	if err := w.committed.diff(f); err != nil {
		return 0, fmt.Errorf("fault-free follower state: %w", err)
	}
	return total, nil
}

// openFollower opens ostore over a promoted standby's media: the standby's
// journal is the store's redo log (same path convention, same record
// protocol).
func openFollower(path string) (storage.Manager, repl.RecoveryInfo, error) {
	var rec repl.RecoveryInfo
	m, err := ostore.Open(ostore.Options{
		Path: path, PoolPages: 48,
		CheckpointEvery: ckptEvery, Recovery: &rec,
	})
	return m, rec, err
}

// failoverCrashPass kills the primary mid-workload, promotes the follower,
// and checks the committed-prefix invariant.
func failoverCrashPass(cfg Config, plan fault.Plan, res *Result) error {
	dbPath := filepath.Join(cfg.Dir, fmt.Sprintf("%s-fo-crash-%d.db", cfg.Backend, cfg.Seed))
	standbyPath := filepath.Join(cfg.Dir, fmt.Sprintf("%s-fo-crash-standby-%d.db", cfg.Backend, cfg.Seed))
	st, err := openStandby(standbyPath)
	if err != nil {
		return err
	}
	in := fault.NewInjector(plan)

	w := newWorkload(cfg.Seed)
	m, g, err := openInjected(cfg, dbPath, in, st)
	switch {
	case err != nil && errors.Is(err, fault.ErrCrashed):
		res.FailedCall = "Open"
	case err != nil:
		st.Close()
		return fmt.Errorf("open: %w", err)
	default:
		call, werr := w.run(m, g, cfg.Txns, cfg.OpsPerTxn)
		switch {
		case werr != nil && errors.Is(werr, fault.ErrCrashed):
			res.FailedCall = call
		case werr != nil:
			m.Close()
			st.Close()
			return fmt.Errorf("workload failed at %s without injected crash: %w", call, werr)
		default:
			res.FailedCall = "Close"
		}
		// The primary is dead; its media are unreachable past the crash
		// point. Only the follower survives.
		_ = m.Close()
	}
	if !in.Crashed() {
		st.Close()
		return fmt.Errorf("plan crash@%d never fired (%d ops seen)", plan.CrashOp, in.Ops())
	}
	res.TornOp = in.TornOp()
	res.Commits = w.commits

	if err := st.Promote(); err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	f, rec, err := openFollower(standbyPath)
	if err != nil {
		return fmt.Errorf("open promoted follower: %w", err)
	}
	defer f.Close()
	if rec.Replayed != 0 {
		return fmt.Errorf("promoted follower replayed %d records; Promote should have checkpointed", rec.Replayed)
	}

	// The follower never saw the crash: it must hold the exact committed
	// prefix. If the crash hit inside a commit's flush, the record may have
	// shipped before the ack was lost — then the follower holds exactly the
	// state an in-flight transaction would leave instead. Nothing else is
	// acceptable.
	commErr := w.committed.diff(f)
	if commErr == nil {
		if w.commits == 0 {
			res.Outcome = "follower-empty"
		} else {
			res.Outcome = "follower-committed"
		}
		return nil
	}
	if w.matchesInflight(f) {
		res.Outcome = "follower-pending"
		return nil
	}
	if len(w.inflight) > 0 {
		return fmt.Errorf("follower matches neither committed prefix (%w) nor an in-flight transaction", commErr)
	}
	return fmt.Errorf("follower does not hold the committed prefix: %w", commErr)
}
