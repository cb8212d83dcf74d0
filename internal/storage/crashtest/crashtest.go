// Package crashtest is a randomized crash-recovery property harness for the
// persistent storage managers. One experiment is derived from a single seed,
// and one driver runs it in two rounds that differ only in the survivor:
//
//  1. Count pass: a seeded workload runs to completion against a fresh
//     primary whose media are wrapped in fault-counting (but never-failing)
//     injectors. This learns the workload's total I/O operation count and
//     verifies the clean path: the survivor opens with nothing to replay and
//     holds exactly the final model.
//  2. Crash pass: the same workload runs against a fresh primary with a
//     fault.Plan drawn from the seed — a crash point uniform over the whole
//     I/O history, with a seeded tear mode for the interrupted write. The
//     first failed call is the moment the process "dies": the manager is
//     abandoned (Close releases descriptors but the fault layer lets
//     nothing else reach the media).
//  3. Verdict: the survivor is opened cold and diffed against the shadow
//     model. For ostore the invariant is the redo log's contract — every
//     transaction whose Commit returned is fully visible, every other
//     transaction is fully invisible (a crash inside Commit may land on
//     either side, but never between). For texas, which has no log, the
//     invariant is loud failure — a reopen either serves exactly the
//     committed state or refuses (ErrTornStore); it never serves torn data.
//
// In the recovery round (Run) the survivor is the primary's own store,
// reopened as a restart finds it; its replay is bounded by the checkpoint
// interval. In the failover round (RunFailover, ostore only: texas has no
// redo log to ship) the primary's commits ship to a standby, and the
// survivor is that standby, promoted and then opened by the same opener,
// with nothing to replay.
//
// On ostore the workload also runs a seeded share of its transactions as
// two-committer pairs: one transaction's flush is held at its log write
// while the next begins, writes and seals behind it (the pipelined commit,
// DESIGN §8), so a crash can land in a flush with a second commit sealed
// and unacknowledged. Each such transaction may then land on either side,
// in seal order, and still never in part.
//
// Every decision flows from the seed, so a failing schedule is reported —
// and replayed — as its seed alone. Every pass works in a directory it makes
// itself under Config.Dir, so a reused Dir never hands a pass an earlier
// run's files.
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

// Config parameterizes one Run or RunFailover.
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

// Result describes what one experiment did, for reports and failure messages.
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
	Outcome    string // recovered-committed | recovered-pending | torn-detected | fresh-empty | follower-committed | follower-pending | follower-empty
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

// Run executes one seeded crash-recovery experiment: the survivor is the
// primary's own store, reopened cold. A non-nil error is an invariant
// violation (or a harness I/O problem), phrased so the seed replays it.
func Run(cfg Config) (Result, error) { return drive(cfg, recovery) }

// RunFailover is the warm-standby round: the same seeded workload drives a
// fault-injected primary whose commits ship to an in-process repl.Standby
// over clean media (the standby is a different "machine" — the primary's
// crash plan never touches it). When the primary dies, the standby is
// promoted and opened, and must serve exactly the committed prefix — or,
// after a crash inside a commit's flush that shipped the record before the
// client could hear the ack, exactly the state an in-flight transaction
// would leave (Outcome "follower-pending").
//
// Only ostore ships: texas has no log, so RunFailover refuses it.
func RunFailover(cfg Config) (Result, error) {
	if cfg.Backend != BackendOStore {
		return Result{Backend: cfg.Backend, Seed: cfg.Seed}, fmt.Errorf("failover: %s has no redo log to ship; only ostore runs a standby", cfg.Backend)
	}
	return drive(cfg, failover)
}

// A round is what survives the primary: its own store or its standby.
type round struct {
	name      string // the labflow experiment that replays the round
	outcome   string // the outcomes' prefix
	maxReplay int    // records the survivor's open may replay after a crash
	standby   bool   // the primary ships to a standby, which survives it
}

var (
	// recovery reopens the primary: replay is bounded by the interval.
	recovery = round{name: "crashtest", outcome: "recovered", maxReplay: ckptEvery}
	// failover promotes the standby, which checkpoints: nothing to replay.
	failover = round{name: "failover", outcome: "follower", standby: true}
)

// drive runs one seeded experiment of round r: a count pass, then a crash
// pass.
func drive(cfg Config, r round) (Result, error) {
	if cfg.Txns <= 0 {
		cfg.Txns = 20
	}
	if cfg.OpsPerTxn <= 0 {
		cfg.OpsPerTxn = 6
	}
	res := Result{Backend: cfg.Backend, Seed: cfg.Seed}

	// Pass 1: learn the workload's I/O length and verify the clean path.
	totalOps, err := countPass(cfg, r)
	if err != nil {
		return res, fmt.Errorf("%s %s seed %d (count pass): %w", r.name, cfg.Backend, cfg.Seed, err)
	}
	res.TotalOps = totalOps

	// Pass 2: same workload, crash drawn from the seed.
	plan := fault.NewPlan(cfg.Seed, totalOps)
	res.CrashOp = plan.CrashOp
	res.Tear = plan.Tear
	if err := crashPass(cfg, r, plan, &res); err != nil {
		return res, fmt.Errorf("%s %s seed %d (crash@%d tear=%s torn=%q failed=%s): %w",
			r.name, cfg.Backend, cfg.Seed, plan.CrashOp, plan.Tear, res.TornOp, res.FailedCall, err)
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
// not pipelined). ship, if non-nil, pairs an ostore primary with a standby;
// texas has no log to ship.
func openInjected(b Backend, dbPath string, in *fault.Injector, ship repl.Shipper) (storage.Manager, *gatedLog, error) {
	fb, err := pagefile.OpenFile(dbPath)
	if err != nil {
		return nil, nil, err
	}
	switch b {
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

// OpenInjected opens a fresh store for b at dbPath with its media behind
// in, as every pass opens its primary, so crash schedules over other layers
// (the shard round) fault the same stores.
func OpenInjected(b Backend, dbPath string, in *fault.Injector) (storage.Manager, error) {
	m, _, err := openInjected(b, dbPath, in, nil)
	return m, err
}

// gateOf is the gate of an ostore store's log, nil for texas.
func gateOf(log *gatedLog) *gate.Gate {
	if log == nil {
		return nil
	}
	return log.gate
}

// OpenPlain opens b's store at dbPath cold, without injection — the
// recovery path a real restart takes, and the one every survivor is opened
// by. rec, if non-nil, captures how much recovery work an ostore open
// performed so verifiers can assert it is checkpoint-bounded; texas does no
// recovery work and leaves it zero.
func OpenPlain(b Backend, dbPath string, rec *repl.RecoveryInfo) (storage.Manager, error) {
	switch b {
	case BackendOStore:
		return ostore.Open(ostore.Options{
			Path: dbPath, PoolPages: 48,
			CheckpointEvery: ckptEvery, Recovery: rec,
		})
	default:
		return texas.Open(texas.Options{Path: dbPath, MaxResidentPages: 48})
	}
}

// A pass is one run of the seeded workload against a primary opened fresh
// through openInjected, in a directory the pass made itself: no file an
// earlier run left in Config.Dir is ever opened. In the failover round the
// primary ships to a standby in the same directory.
type pass struct {
	backend Backend
	dir     string
	standby *repl.Standby // nil unless the round fails over
}

func newPass(cfg Config, r round, name string) (*pass, error) {
	dir, err := os.MkdirTemp(cfg.Dir, fmt.Sprintf("%s-%s-%s-%d-", r.name, cfg.Backend, name, cfg.Seed))
	if err != nil {
		return nil, err
	}
	p := &pass{backend: cfg.Backend, dir: dir}
	if r.standby {
		p.standby, err = repl.OpenFileStandby(filepath.Join(dir, "standby.db"), ckptEvery)
	}
	return p, err
}

// open opens the primary behind in, shipping to the standby if there is one.
func (p *pass) open(in *fault.Injector) (storage.Manager, *gatedLog, error) {
	var ship repl.Shipper
	if p.standby != nil {
		ship = p.standby
	}
	return openInjected(p.backend, filepath.Join(p.dir, "primary.db"), in, ship)
}

// survivor opens, through OpenPlain, what outlives the stopped primary: its
// own store, or the standby once promoted.
func (p *pass) survivor(rec *repl.RecoveryInfo) (storage.Manager, error) {
	if p.standby == nil {
		return OpenPlain(p.backend, filepath.Join(p.dir, "primary.db"), rec)
	}
	if err := p.standby.Promote(); err != nil {
		return nil, fmt.Errorf("promote: %w", err)
	}
	return OpenPlain(p.backend, filepath.Join(p.dir, "standby.db"), rec)
}

// close abandons a standby the pass did not get as far as promoting.
func (p *pass) close() {
	if p.standby != nil {
		p.standby.Close()
	}
}

// countPass runs the workload fault-free, closes cleanly, and checks the
// survivor against the final model. It returns the total I/O op count the
// crash point is drawn from.
func countPass(cfg Config, r round) (uint64, error) {
	p, err := newPass(cfg, r, "count")
	if err != nil {
		return 0, err
	}
	defer p.close()
	in := fault.NewInjector(fault.Plan{Seed: cfg.Seed}) // CrashOp 0: count only
	m, log, err := p.open(in)
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
	m2, err := p.survivor(&rec)
	if err != nil {
		return 0, fmt.Errorf("clean reopen: %w", err)
	}
	defer m2.Close()
	if err := w.committed.diff(m2); err != nil {
		return 0, fmt.Errorf("clean reopen state: %w", err)
	}
	// A clean close ends on a checkpoint, and so does Promote: the open
	// must do zero work.
	if rec.Replayed != 0 {
		return 0, fmt.Errorf("clean reopen did recovery work: %+v", rec)
	}
	return total, nil
}

// crashPass runs the workload under the crash plan, opens the survivor
// cold, and checks the backend's recovery invariant.
func crashPass(cfg Config, r round, plan fault.Plan, res *Result) error {
	p, err := newPass(cfg, r, "crash")
	if err != nil {
		return err
	}
	defer p.close()
	in := fault.NewInjector(plan)

	w := newWorkload(cfg.Seed)
	m, log, err := p.open(in)
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
	m2, err := p.survivor(&rec)
	if cfg.Backend == BackendTexas {
		return verifyTexas(m2, err, in, w, res)
	}
	res.Window = logWindow(in, log)
	if res.Window == "" {
		res.Window = w.window
	}
	return verifyOStore(m2, err, r, rec, w, res)
}

// checkReplay holds the survivor's open to the round's replay bound.
func (r round) checkReplay(rec repl.RecoveryInfo) error {
	if rec.Replayed > r.maxReplay {
		return fmt.Errorf("%s open replayed %d records, bound is %d", r.name, rec.Replayed, r.maxReplay)
	}
	return nil
}

// verifyOStore checks the redo-log contract: the survivor always opens, its
// state is exactly the committed model — or exactly the state an ended but
// unacknowledged transaction would leave (a crash inside Commit, or in a
// flush with a second commit sealed behind it) — and its replay work is
// within the round's bound.
func verifyOStore(m2 storage.Manager, openErr error, r round, rec repl.RecoveryInfo, w *workload, res *Result) error {
	if openErr != nil {
		return fmt.Errorf("reopen after crash: %w", openErr)
	}
	defer m2.Close()
	if err := r.checkReplay(rec); err != nil {
		return err
	}
	// The durability point may have passed before the crash: an in-flight
	// transaction (and every one sealed before it) is then fully visible.
	// Anything between those states is a torn store.
	commErr := w.committed.diff(m2)
	switch {
	case commErr == nil && r.standby && w.commits == 0:
		res.Outcome = "follower-empty"
	case commErr == nil:
		res.Outcome = r.outcome + "-committed"
	case w.matchesInflight(m2):
		res.Outcome = r.outcome + "-pending"
	case len(w.inflight) > 0:
		return fmt.Errorf("state matches neither committed (%w) nor an in-flight transaction", commErr)
	default:
		return fmt.Errorf("committed state not recovered: %w", commErr)
	}
	return nil
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
