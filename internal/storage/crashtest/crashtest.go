// Package crashtest is a randomized crash-recovery property harness for the
// persistent storage managers. One Run is a complete experiment derived
// from a single seed:
//
//  1. Count pass: a seeded workload runs to completion against a fresh
//     store whose media are wrapped in fault-counting (but never-failing)
//     injectors. This learns the workload's total I/O operation count and
//     verifies the clean-shutdown/reopen path against the shadow model.
//  2. Crash pass: the same workload runs against fresh media with a
//     fault.Plan drawn from the seed — a crash point uniform over the whole
//     I/O history, with a seeded tear mode for the interrupted write. The
//     first failed call is the moment the process "dies": the manager is
//     abandoned (Close releases descriptors but the fault layer lets
//     nothing else reach the media), and the store is reopened cold,
//     exactly as crash recovery would find it.
//  3. Verdict: the reopened store is diffed against the shadow model. For
//     ostore the invariant is the redo log's contract — every transaction
//     whose Commit returned is fully visible, every other transaction is
//     fully invisible (a crash inside Commit may land on either side, but
//     never between). For texas, which has no log, the invariant is loud
//     failure — a reopen either serves exactly the committed state or
//     refuses (ErrTornStore); it never serves torn data.
//
// On ostore the workload also runs a seeded share of its transactions as
// two-committer pairs: one transaction's flush is held at its log write
// while the next begins, writes and seals behind it (the pipelined commit,
// DESIGN §8), so a crash can land in a flush with a second commit sealed
// and unacknowledged. Each such transaction may then land on either side,
// in seal order, and still never in part.
//
// RunFailover is the warm-standby variant, on ostore only: texas has no
// redo log to ship. Every decision flows from the seed, so a failing
// schedule is reported — and replayed — as its seed alone.
package crashtest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"labflow/internal/fault"
	"labflow/internal/fault/gate"
	"labflow/internal/storage"
	"labflow/internal/storage/ostore"
	"labflow/internal/storage/pagefile"
	"labflow/internal/storage/repl"
	"labflow/internal/storage/texas"
)

// ckptEvery is the checkpoint interval ostore (and the failover standby)
// runs under in the harness: small enough that most crash schedules cross
// several checkpoint boundaries, so the bounded-recovery invariant (reopen
// replays at most this many records) is exercised rather than vacuous.
const ckptEvery = 4

// Backend selects the storage manager under test.
type Backend uint8

const (
	// BackendOStore tests the redo-logged page-server manager.
	BackendOStore Backend = iota
	// BackendTexas tests the log-less persistent heap.
	BackendTexas
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendOStore:
		return "ostore"
	case BackendTexas:
		return "texas"
	default:
		return fmt.Sprintf("backend(%d)", uint8(b))
	}
}

// Config parameterizes one Run.
type Config struct {
	// Backend is the manager under test.
	Backend Backend
	// Seed derives the workload, the crash point, and the tear mode.
	Seed int64
	// Dir is a caller-owned scratch directory for the store files.
	Dir string
	// Txns and OpsPerTxn size the workload (defaults 20 and 6).
	Txns      int
	OpsPerTxn int
}

// Result describes what one Run did, for reports and failure messages.
type Result struct {
	Backend    Backend
	Seed       int64
	TotalOps   uint64 // I/O ops in the fault-free pass
	CrashOp    uint64 // the op the crash pass died at
	Tear       fault.TearMode
	TornOp     string // what the crash tore ("" if a clean cut)
	Window     string // named window the crash op landed in ("" if none), see logWindow and WindowSealedBehindFlush
	FailedCall string // the manager call that observed the death
	Commits    int    // transactions committed before the crash
	Outcome    string // recovered-committed | recovered-pending | torn-detected | fresh-empty
}

// String implements fmt.Stringer.
func (r Result) String() string {
	window := ""
	if r.Window != "" {
		window = " window=" + r.Window
	}
	return fmt.Sprintf("%s seed=%d crash@%d/%d tear=%s%s failed=%s commits=%d → %s",
		r.Backend, r.Seed, r.CrashOp, r.TotalOps, r.Tear, window, r.FailedCall, r.Commits, r.Outcome)
}

// Run executes one seeded crash-recovery experiment. A non-nil error is an
// invariant violation (or a harness I/O problem), phrased so the seed
// replays it.
func Run(cfg Config) (Result, error) {
	if cfg.Txns <= 0 {
		cfg.Txns = 20
	}
	if cfg.OpsPerTxn <= 0 {
		cfg.OpsPerTxn = 6
	}
	res := Result{Backend: cfg.Backend, Seed: cfg.Seed}

	// Pass 1: learn the workload's I/O length and verify the clean path.
	totalOps, err := countPass(cfg)
	if err != nil {
		return res, fmt.Errorf("crashtest %s seed %d (count pass): %w", cfg.Backend, cfg.Seed, err)
	}
	res.TotalOps = totalOps

	// Pass 2: same workload, crash drawn from the seed.
	plan := fault.NewPlan(cfg.Seed, totalOps)
	res.CrashOp = plan.CrashOp
	res.Tear = plan.Tear
	if err := crashPass(cfg, plan, &res); err != nil {
		return res, fmt.Errorf("crashtest %s seed %d (crash@%d tear=%s torn=%q failed=%s): %w",
			cfg.Backend, cfg.Seed, plan.CrashOp, plan.Tear, res.TornOp, res.FailedCall, err)
	}
	return res, nil
}

// The two windows recycling the log in place opened (package repl): both are
// log writes aimed at bytes the file already holds.
const (
	// WindowCursorRewrite is an in-session checkpoint overwriting the cursor
	// of a log that still holds the interval it is retiring.
	WindowCursorRewrite = "cursor-rewrite"
	// WindowRecordOverlay is a record landing on top of a retired one.
	WindowRecordOverlay = "record-overlay"
	// WindowSealedBehindFlush is a crash inside one commit's flush while
	// the next commit is already sealed behind it, waiting on the same
	// flusher: the window the pipelined commit opened.
	WindowSealedBehindFlush = "sealed-behind-flush"
	// WindowUpdateSealedPage is a crash inside one commit's flush while the
	// next commit is sealed behind it, having begun with an in-place Update
	// of a page the flush had still to write: the copy-on-write pin.
	WindowUpdateSealedPage = "update-sealed-page"
	// WindowRecordChunk is a log write that continues a record an earlier
	// write of the same flush began: a group wider than the flusher's
	// record buffer reaches the log in several writes (repl.WriteRecord).
	WindowRecordChunk = "record-chunk"
)

// logWindow names the log window the crash op landed in. The seeds are fixed
// but the op they crash at is not — any change to the I/O a store issues
// renumbers them — so the fixed-seed round asserts it still reaches every
// window instead of assuming it. A record's continuing chunk is named as
// such wherever it lands, over retired bytes or past them.
func logWindow(in *fault.Injector, log *gatedLog) string {
	w, ok := in.CrashedLogWrite()
	switch {
	case !ok:
		return ""
	case log.crashedChunk:
		return WindowRecordChunk
	case w.Off == 0 && w.Len == repl.CursorSize && w.FileSize > repl.CursorSize:
		return WindowCursorRewrite
	case w.Off >= repl.CursorSize && w.Off < w.FileSize:
		return WindowRecordOverlay
	}
	return ""
}

// gatedLog passes every log write through a gate ahead of the injector's
// count, so the workload can hold a flush at its record write. It also
// follows the records the writes lay down, to tell the crash point's write
// apart when it continued a record an earlier write began.
type gatedLog struct {
	repl.LogFile
	gate *gate.Gate

	recStart, recEnd int64 // the record the writes are laying down
	failed           bool  // a write has failed: the first is the crash's
	crashedChunk     bool  // that write continued a record
}

func (l *gatedLog) WriteAt(p []byte, off int64) (int, error) {
	l.gate.Pass()
	chunk := off > l.recStart && off < l.recEnd
	// Any other write past the cursor heads a record: LSN, then page count.
	if !chunk && off >= repl.CursorSize && len(p) >= 12 {
		l.recStart, l.recEnd = off, off+repl.RecordSize(binary.LittleEndian.Uint32(p[8:12]))
	}
	n, err := l.LogFile.WriteAt(p, off)
	if err != nil && !l.failed {
		l.failed, l.crashedChunk = true, chunk
	}
	return n, err
}

// openInjected opens a fresh store for the backend with its media wrapped
// in the injector, and for ostore its gated log, whose gate the workload's
// two-committer pairs hold a flush with (nil for texas, whose commits are
// not pipelined). ship, if non-nil, pairs an ostore primary with a standby
// — the failover harness's hook; texas has no log to ship.
func openInjected(cfg Config, dbPath string, in *fault.Injector, ship repl.Shipper) (storage.Manager, *gatedLog, error) {
	fb, err := pagefile.OpenFile(dbPath)
	if err != nil {
		return nil, nil, err
	}
	switch cfg.Backend {
	case BackendOStore:
		logf, err := os.OpenFile(dbPath+".log", os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			fb.Close()
			return nil, nil, err
		}
		log := &gatedLog{LogFile: fault.WrapFile(logf, in), gate: &gate.Gate{}}
		// Open owns both media from here: on error it closes them once.
		m, err := ostore.Open(ostore.Options{
			Backing:         fault.WrapBacking(fb, in),
			Log:             log,
			PoolPages:       48, // small pool: eviction traffic widens the crash surface
			CheckpointEvery: ckptEvery,
			Shipper:         ship,
		})
		return m, log, err
	default:
		m, err := texas.Open(texas.Options{
			Backing:          fault.WrapBacking(fb, in),
			MaxResidentPages: 48, // small residency: mid-transaction write-backs
		})
		return m, nil, err
	}
}

// gateOf is the gate of an ostore store's log, nil for texas.
func gateOf(log *gatedLog) *gate.Gate {
	if log == nil {
		return nil
	}
	return log.gate
}

// openPlain reopens the store cold, without injection — the recovery path a
// real restart takes. rec captures how much recovery work an ostore reopen
// performed so verifiers can assert it is checkpoint-bounded; texas does no
// recovery work and leaves it zero.
func openPlain(cfg Config, dbPath string, rec *repl.RecoveryInfo) (storage.Manager, error) {
	switch cfg.Backend {
	case BackendOStore:
		return ostore.Open(ostore.Options{
			Path: dbPath, PoolPages: 48,
			CheckpointEvery: ckptEvery, Recovery: rec,
		})
	default:
		return texas.Open(texas.Options{Path: dbPath, MaxResidentPages: 48})
	}
}

// countPass runs the workload fault-free, closes cleanly, and checks the
// reopened store against the final model. It returns the total I/O op count
// the crash point is drawn from.
func countPass(cfg Config) (uint64, error) {
	dbPath := filepath.Join(cfg.Dir, fmt.Sprintf("%s-count-%d.db", cfg.Backend, cfg.Seed))
	in := fault.NewInjector(fault.Plan{Seed: cfg.Seed}) // CrashOp 0: count only
	m, log, err := openInjected(cfg, dbPath, in, nil)
	if err != nil {
		return 0, fmt.Errorf("open: %w", err)
	}
	w := newWorkload(cfg.Seed)
	if call, err := w.run(m, gateOf(log), cfg.Txns, cfg.OpsPerTxn); err != nil {
		m.Close()
		return 0, fmt.Errorf("fault-free workload failed at %s: %w", call, err)
	}
	if err := m.Close(); err != nil {
		return 0, fmt.Errorf("clean close: %w", err)
	}
	total := in.Ops()

	var rec repl.RecoveryInfo
	m2, err := openPlain(cfg, dbPath, &rec)
	if err != nil {
		return 0, fmt.Errorf("clean reopen: %w", err)
	}
	defer m2.Close()
	if err := w.committed.diff(m2); err != nil {
		return 0, fmt.Errorf("clean reopen state: %w", err)
	}
	// A clean close ends on a checkpoint: the reopen must do zero work.
	if rec.Replayed != 0 {
		return 0, fmt.Errorf("clean reopen did recovery work: %+v", rec)
	}
	return total, nil
}

// crashPass runs the workload under the crash plan, reopens cold, and
// checks the backend's recovery invariant.
func crashPass(cfg Config, plan fault.Plan, res *Result) error {
	dbPath := filepath.Join(cfg.Dir, fmt.Sprintf("%s-crash-%d.db", cfg.Backend, cfg.Seed))
	in := fault.NewInjector(plan)

	w := newWorkload(cfg.Seed)
	m, log, err := openInjected(cfg, dbPath, in, nil)
	switch {
	case err != nil && errors.Is(err, fault.ErrCrashed):
		// Died while formatting the store: nothing was ever committed.
		res.FailedCall = "Open"
	case err != nil:
		return fmt.Errorf("open: %w", err)
	default:
		call, werr := w.run(m, gateOf(log), cfg.Txns, cfg.OpsPerTxn)
		switch {
		case werr != nil && errors.Is(werr, fault.ErrCrashed):
			res.FailedCall = call
		case werr != nil:
			m.Close()
			return fmt.Errorf("workload failed at %s without injected crash: %w", call, werr)
		default:
			res.FailedCall = "Close" // the crash op can only be in Close's own I/O
		}
		// Abandon the dead process: Close releases descriptors, but the
		// fault layer stops every flush/truncate from reaching the media,
		// so the on-disk state stays exactly as the crash left it.
		_ = m.Close()
	}
	if !in.Crashed() {
		return fmt.Errorf("plan crash@%d never fired (%d ops seen)", plan.CrashOp, in.Ops())
	}
	res.TornOp = in.TornOp()
	res.Commits = w.commits

	var rec repl.RecoveryInfo
	m2, err := openPlain(cfg, dbPath, &rec)
	if cfg.Backend == BackendTexas {
		return verifyTexas(m2, err, in, w, res)
	}
	res.Window = logWindow(in, log)
	if res.Window == "" {
		res.Window = w.window
	}
	return verifyOStore(m2, err, &rec, w, res)
}

// verifyOStore checks the redo-log contract: reopen always succeeds, the
// recovered state is exactly the committed model — or exactly the state an
// ended but unacknowledged transaction would leave (a crash inside Commit,
// or in a flush with a second commit sealed behind it) — and the replay
// work is bounded by the checkpoint interval.
func verifyOStore(m2 storage.Manager, openErr error, rec *repl.RecoveryInfo, w *workload, res *Result) error {
	if openErr != nil {
		return fmt.Errorf("reopen after crash: %w", openErr)
	}
	defer m2.Close()
	if rec.Replayed > ckptEvery {
		return fmt.Errorf("reopen replayed %d records, checkpoint interval is %d", rec.Replayed, ckptEvery)
	}
	commErr := w.committed.diff(m2)
	if commErr == nil {
		res.Outcome = "recovered-committed"
		return nil
	}
	// The durability point may have passed before the crash: an in-flight
	// transaction (and every one sealed before it) is then fully visible.
	// Anything between those states is a torn store.
	if w.matchesInflight(m2) {
		res.Outcome = "recovered-pending"
		return nil
	}
	if len(w.inflight) > 0 {
		return fmt.Errorf("state matches neither committed (%w) nor an in-flight transaction", commErr)
	}
	return fmt.Errorf("committed state not recovered: %w", commErr)
}

// verifyTexas checks the log-less contract: a reopen either refuses (the
// crash left the store torn) or serves exactly the committed state.
func verifyTexas(m2 storage.Manager, openErr error, in *fault.Injector, w *workload, res *Result) error {
	if openErr != nil {
		// Any refusal is safe; the marker's explicit verdict is the
		// designed one.
		if errors.Is(openErr, texas.ErrTornStore) {
			res.Outcome = "torn-detected"
		} else {
			res.Outcome = "torn-detected(superblock)"
		}
		return nil
	}
	defer m2.Close()
	if err := w.committed.diff(m2); err != nil {
		return fmt.Errorf("store reopened silently after crash (%d completed writes, %d commits) with torn state: %w",
			in.Writes(), w.commits, err)
	}
	if w.commits == 0 && in.Writes() == 0 {
		res.Outcome = "fresh-empty"
	} else {
		res.Outcome = "recovered-committed"
	}
	return nil
}
