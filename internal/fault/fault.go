// Package fault is a deterministic fault-injection layer for the storage
// stack. It wraps the two media the persistent managers write — the page
// backing (pagefile.Backing) and the ostore redo log — and injects the
// failure modes a real disk exposes at a crash: torn writes (a prefix, or a
// head-and-tail with the middle sectors lost to reordering), short reads,
// failed syncs, and a scheduled "crash point" after which nothing reaches
// the medium anymore.
//
// Everything is driven by a Plan derived from a single int64 seed, so every
// injected failure is byte-replayable: the same seed against the same
// deterministic workload produces the same operation sequence, the same
// crash point, and the same torn bytes. This is the property the crashtest
// harness (internal/storage/crashtest) builds on — a failing schedule is
// reported as its seed and nothing else.
//
// The crash model is "the process died at this instant, the disk keeps what
// had reached it": the operation at the crash point applies a partial effect
// (per the plan's tear mode), and every later operation returns ErrCrashed
// without touching the medium. Close is the one exception — it closes the
// wrapped handle (a dying process's descriptors are closed by the operating
// system too) but never flushes, truncates, or writes, so the harness can
// release resources and then inspect the on-disk state exactly as the crash
// left it.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// ErrCrashed is returned by every operation at and after the plan's crash
// point. It marks the injected process death; callers match it with
// errors.Is to distinguish an injected crash from a genuine I/O failure.
var ErrCrashed = errors.New("fault: injected crash")

// TearMode selects how the write at the crash point is torn.
type TearMode uint8

const (
	// TearNone loses the write entirely: nothing reaches the medium.
	TearNone TearMode = iota
	// TearHead keeps a leading fraction of the write and loses the rest,
	// the classic torn write of a power cut mid-transfer.
	TearHead
	// TearMiddleLost keeps the first and last sectors of the write and
	// loses the middle — the sector-reordering case, where the drive
	// committed the head and tail of a multi-sector write before dying.
	TearMiddleLost
)

// String implements fmt.Stringer.
func (m TearMode) String() string {
	switch m {
	case TearNone:
		return "none"
	case TearHead:
		return "head"
	case TearMiddleLost:
		return "middle-lost"
	default:
		return fmt.Sprintf("tear(%d)", uint8(m))
	}
}

// SectorSize is the granularity of the TearMiddleLost mode: the head and
// tail survive at this grain, mirroring a drive's atomic sector.
const SectorSize = 512

// Plan is a fully materialized fault schedule. All randomness is drawn up
// front in NewPlan, so a Plan value (or just its seed) replays exactly.
type Plan struct {
	// Seed the plan was derived from, carried for reporting.
	Seed int64
	// CrashOp is the 1-based index of the operation at which the crash
	// fires; 0 means never (counting-only runs).
	CrashOp uint64
	// Tear is how the crash-point write (if it is a write) is torn.
	Tear TearMode
	// TearFrac24 is the surviving fraction of a TearHead write, in units
	// of 1/(1<<24) — fixed-point so the plan is integer-exact.
	TearFrac24 uint32
	// ShortRead, when true, makes the crash-point operation (if it is a
	// read) return a truncated prefix instead of failing outright,
	// exercising callers that must honour the returned byte count.
	ShortRead bool
}

// NewPlan derives a schedule from seed with a crash point drawn uniformly
// from [1, maxOp]. maxOp is the operation count of the workload being
// attacked, normally learned from a counting pass (see Injector.Ops);
// maxOp <= 0 yields a plan that never crashes.
func NewPlan(seed int64, maxOp uint64) Plan {
	p := Plan{Seed: seed}
	if maxOp == 0 {
		return p
	}
	rng := rand.New(rand.NewSource(seed))
	p.CrashOp = uint64(rng.Int63n(int64(maxOp))) + 1
	switch rng.Intn(3) {
	case 0:
		p.Tear = TearNone
	case 1:
		p.Tear = TearHead
	default:
		p.Tear = TearMiddleLost
	}
	p.TearFrac24 = uint32(rng.Int63n(1 << 24))
	p.ShortRead = rng.Intn(2) == 0
	return p
}

// headLen returns how many leading bytes of an n-byte transfer survive a
// TearHead tear (at least 1 so a tear is never a silent no-op, at most n-1
// so it is never a complete write).
func (p Plan) headLen(n int) int {
	if n <= 1 {
		return 0
	}
	k := int(uint64(n) * uint64(p.TearFrac24) >> 24)
	if k < 1 {
		k = 1
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// Injector applies one Plan across every wrapped medium of one store
// instance. The backing and the log share a single operation counter, so
// the crash point is a point in the store's whole I/O history, not one
// stream's.
type Injector struct {
	mu      sync.Mutex
	plan    Plan
	op      uint64
	crashed bool
	// effects observed before the crash, for harness assertions.
	writes   uint64   // completed (untorn) writes that reached the medium
	tornOp   string   // description of the op the crash tore, "" if none
	logWrite LogWrite // the File write the crash point hit, if it hit one
	hitLog   bool
}

// LogWrite locates the File.WriteAt a crash point interrupted: where it was
// aimed, how long it was, and how long the file was when it was issued.
// Whether the write would have extended the file or overwritten bytes
// already in it is what a harness needs to tell which of a recycled log's
// windows a schedule landed in; torn or lost entirely makes no difference
// to that, so this is recorded for every tear mode.
type LogWrite struct {
	Off      int64
	Len      int
	FileSize int64
}

// NewInjector returns an injector executing plan from operation 1.
func NewInjector(plan Plan) *Injector {
	return &Injector{plan: plan}
}

// Plan returns the schedule the injector executes.
func (in *Injector) Plan() Plan { return in.plan }

// Ops returns the number of operations observed so far. After a fault-free
// counting run this is the maxOp to hand NewPlan for the crash run.
func (in *Injector) Ops() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.op
}

// Crashed reports whether the crash point has fired.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// Writes returns the number of completed, untorn writes that reached the
// medium before the crash (all writes, if no crash fired).
func (in *Injector) Writes() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.writes
}

// TornOp describes the operation the crash point tore ("" if the crash hit
// a non-write or no crash fired), for failure reports.
func (in *Injector) TornOp() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.tornOp
}

// CrashedLogWrite reports the File write the crash point interrupted; ok is
// false if no crash fired or it hit some other operation.
func (in *Injector) CrashedLogWrite() (w LogWrite, ok bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.logWrite, in.hitLog
}

// action is the injector's verdict on one operation.
type action uint8

const (
	actProceed action = iota // perform the operation normally
	actCrash                 // fire the crash point at this operation
	actDead                  // the crash already fired: fail, no effect
)

// step advances the operation counter and returns the verdict for the
// current operation.
func (in *Injector) step() action {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return actDead
	}
	in.op++
	if in.plan.CrashOp != 0 && in.op == in.plan.CrashOp {
		in.crashed = true
		return actCrash
	}
	return actProceed
}

// noteWrite records one completed write.
func (in *Injector) noteWrite() {
	in.mu.Lock()
	in.writes++
	in.mu.Unlock()
}

// noteTorn records what the crash tore.
func (in *Injector) noteTorn(desc string) {
	in.mu.Lock()
	in.tornOp = desc
	in.mu.Unlock()
}

// noteLogWrite records the File write the crash point hit.
func (in *Injector) noteLogWrite(w LogWrite) {
	in.mu.Lock()
	in.logWrite, in.hitLog = w, true
	in.mu.Unlock()
}

// tearBuf returns the surviving byte ranges of an n-byte write torn per the
// plan, as a list of [lo, hi) intervals into the buffer.
func (p Plan) tearBuf(n int) [][2]int {
	switch p.Tear {
	case TearHead:
		if k := p.headLen(n); k > 0 {
			return [][2]int{{0, k}}
		}
		return nil
	case TearMiddleLost:
		if n <= 2*SectorSize {
			// Too small to have a lost middle: degrade to a head tear.
			if k := p.headLen(n); k > 0 {
				return [][2]int{{0, k}}
			}
			return nil
		}
		return [][2]int{{0, SectorSize}, {n - SectorSize, n}}
	default:
		return nil
	}
}
