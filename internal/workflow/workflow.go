// Package workflow implements the workflow-graph model of LabFlow-1
// Section 3 and the simulator that generates the benchmark's event stream
// from it.
//
// "Workflow graphs are based on the idea that each material has a workflow
// state, and as the material is processed, it moves from one state to
// another." A Graph is a set of Transitions: a step class that takes
// materials from one state to another, possibly in batches (over a
// material_set), possibly failing to a retry state, possibly spawning new
// materials (as associate_tclone spawns tclones), and possibly guarded by a
// cross-material condition (assembly waits for all of a clone's tclones).
//
// The simulator drives a Tracker, and so "the workflow graph largely
// determines the workload for the DBMS". The benchmark's tracker (in
// package core) is an in-memory state index that emits each call as an
// event; that one stream is then applied to every store. A store that
// answers the five calls can also be the tracker itself, as it is in the
// tests and in examples/orderflow.
package workflow

import (
	"fmt"
	"math/rand"

	"labflow/internal/labbase"
	"labflow/internal/storage"
)

// ID identifies a material, step or set in the tracked database.
type ID = storage.OID

// Tracker is what the simulator records workflow activity into, and where
// it reads which materials wait in a state. *labbase.DB has these methods;
// the benchmark's generator implements them over an in-memory state index.
type Tracker interface {
	CreateMaterial(class, name, state string, validTime int64) (ID, error)
	CreateMaterialSet(members []ID) (ID, error)
	RecordStep(spec labbase.StepSpec) (ID, error)
	SetState(m ID, state string) error
	MaterialsInState(state string) ([]ID, error)
}

// Spawn asks the engine to create a new material as part of a step.
type Spawn struct {
	Class string
	Name  string
	State string
}

// Ctx is passed to guards and actions.
type Ctx struct {
	// Rng is the simulation's random stream (deterministic per seed).
	Rng *rand.Rand
	// ValidTime is the lab time of the step being generated.
	ValidTime int64
	// T is the tracked database, for read-side decisions.
	T Tracker
}

// ActionFunc computes a step's result attributes and any materials it
// spawns. failed reports the outcome the engine decided for an individual
// transition (always false for batch transitions, whose members fail
// independently).
type ActionFunc func(ctx *Ctx, mats []ID, failed bool) (attrs []labbase.AttrValue, spawns []Spawn, err error)

// Transition is one edge (step class) of the workflow graph.
type Transition struct {
	// Step is the step class recorded for this transition.
	Step string
	// From and To are the state names; failures go to FailTo instead.
	From, To string
	// FailTo is the retry state; "" disables failure.
	FailTo string
	// FailProb is the per-material failure probability.
	FailProb float64
	// Batch > 1 processes up to Batch materials per step instance through a
	// material_set (gel runs). 0 or 1 means individual steps.
	Batch int
	// MaxPerTick bounds how many materials this transition consumes per
	// tick (0 = all waiting).
	MaxPerTick int
	// Guard, when set, must approve each material (cross-material
	// conditions such as "all my tclones are sequenced").
	Guard func(ctx *Ctx, m ID) bool
	// Action computes result attributes and spawns. Nil records a bare
	// step with no attributes.
	Action ActionFunc
}

// Graph is a workflow graph plus where root materials enter it.
type Graph struct {
	Name      string
	RootClass string
	RootState string
	// Transitions fire in declared order each tick.
	Transitions []*Transition
}

// Validate checks the graph's internal consistency.
func (g *Graph) Validate() error {
	if g.RootClass == "" || g.RootState == "" {
		return fmt.Errorf("workflow: graph %q needs a root class and state", g.Name)
	}
	for _, tr := range g.Transitions {
		if tr.Step == "" || tr.From == "" || tr.To == "" {
			return fmt.Errorf("workflow: transition %q needs step, from and to", tr.Step)
		}
		if tr.FailProb > 0 && tr.FailTo == "" {
			return fmt.Errorf("workflow: transition %q has FailProb but no FailTo", tr.Step)
		}
		if tr.FailProb < 0 || tr.FailProb >= 1 {
			if tr.FailProb != 0 {
				return fmt.Errorf("workflow: transition %q FailProb %v out of [0, 1)", tr.Step, tr.FailProb)
			}
		}
	}
	return nil
}

// Stats counts simulated activity.
type Stats struct {
	Steps        uint64
	Batches      uint64
	Failures     uint64
	Spawned      uint64
	Roots        uint64
	StepsByClass map[string]uint64
}

// Engine drives materials through a Graph against a Tracker.
type Engine struct {
	g     *Graph
	t     Tracker
	rng   *rand.Rand
	clock int64

	outOfOrderProb float64
	maxSkew        int64

	nameSeq int64

	// AfterStep, when set, runs after every recorded step with the step's
	// materials, spawned ones included.
	AfterStep func(step ID, class string, mats []ID) error
	// AfterTick, when set, runs after every tick with whether a step
	// fired in it.
	AfterTick func(worked bool) error

	// Stats accumulates over the engine's lifetime.
	Stats Stats
}

// New returns an engine over graph and tracker with a seeded random stream.
func New(g *Graph, t Tracker, seed int64) (*Engine, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		g:   g,
		t:   t,
		rng: rand.New(rand.NewSource(seed)),
		Stats: Stats{
			StepsByClass: make(map[string]uint64),
		},
	}, nil
}

// SetOutOfOrder makes a fraction of steps arrive with a valid time up to
// maxSkew ticks in the past — the paper's "steps can be entered into the
// database in any order".
func (e *Engine) SetOutOfOrder(prob float64, maxSkew int64) {
	e.outOfOrderProb = prob
	e.maxSkew = maxSkew
}

// Clock returns the current lab time.
func (e *Engine) Clock() int64 { return e.clock }

func (e *Engine) nextValidTime() int64 {
	e.clock++
	if e.maxSkew > 0 && e.rng.Float64() < e.outOfOrderProb {
		vt := e.clock - 1 - e.rng.Int63n(e.maxSkew)
		if vt < 0 {
			vt = 0
		}
		return vt
	}
	return e.clock
}

// InjectRoots creates n root materials in the graph's entry state.
func (e *Engine) InjectRoots(n int, namePrefix string) ([]ID, error) {
	out := make([]ID, 0, n)
	for i := 0; i < n; i++ {
		e.nameSeq++
		name := fmt.Sprintf("%s%06d", namePrefix, e.nameSeq)
		id, err := e.t.CreateMaterial(e.g.RootClass, name, e.g.RootState, e.clock)
		if err != nil {
			return nil, fmt.Errorf("workflow: inject root: %w", err)
		}
		out = append(out, id)
		e.Stats.Roots++
	}
	return out, nil
}

// Tick runs one pass over the transitions, reporting whether any step fired.
func (e *Engine) Tick() (bool, error) {
	worked := false
	for _, tr := range e.g.Transitions {
		did, err := e.fire(tr)
		if err != nil {
			return worked, err
		}
		worked = worked || did
	}
	if e.AfterTick != nil {
		if err := e.AfterTick(worked); err != nil {
			return worked, err
		}
	}
	return worked, nil
}

// Run ticks until a tick fires no step, returning the tick count. It fails
// when maxTicks ticks pass without that; maxTicks <= 0 leaves it unbounded.
func (e *Engine) Run(maxTicks int) (int, error) {
	for tick := 1; maxTicks <= 0 || tick <= maxTicks; tick++ {
		worked, err := e.Tick()
		if err != nil {
			return tick, err
		}
		if !worked {
			return tick, nil
		}
	}
	return maxTicks, fmt.Errorf("workflow: %q did not quiesce in %d ticks", e.g.Name, maxTicks)
}

func (e *Engine) fire(tr *Transition) (bool, error) {
	waiting, err := e.t.MaterialsInState(tr.From)
	if err != nil {
		return false, fmt.Errorf("workflow: %s: %w", tr.Step, err)
	}
	if tr.Guard != nil {
		ctx := &Ctx{Rng: e.rng, ValidTime: e.clock, T: e.t}
		kept := waiting[:0]
		for _, m := range waiting {
			if tr.Guard(ctx, m) {
				kept = append(kept, m)
			}
		}
		waiting = kept
	}
	if tr.MaxPerTick > 0 && len(waiting) > tr.MaxPerTick {
		waiting = waiting[:tr.MaxPerTick]
	}
	if len(waiting) == 0 {
		return false, nil
	}

	batch := tr.Batch
	if batch < 1 {
		batch = 1
	}
	for lo := 0; lo < len(waiting); lo += batch {
		group := waiting[lo:min(lo+batch, len(waiting))]
		if err := e.fireGroup(tr, group); err != nil {
			return true, err
		}
	}
	return true, nil
}

func (e *Engine) fireGroup(tr *Transition, group []ID) error {
	vt := e.nextValidTime()
	ctx := &Ctx{Rng: e.rng, ValidTime: vt, T: e.t}

	// Decide outcomes first so actions can report them.
	failed := make([]bool, len(group))
	anyFail := false
	if tr.FailProb > 0 {
		for i := range group {
			failed[i] = e.rng.Float64() < tr.FailProb
			anyFail = anyFail || failed[i]
		}
	}

	var attrs []labbase.AttrValue
	var spawns []Spawn
	if tr.Action != nil {
		var err error
		attrs, spawns, err = tr.Action(ctx, group, len(group) == 1 && failed[0])
		if err != nil {
			return fmt.Errorf("workflow: %s action: %w", tr.Step, err)
		}
	}

	spec := labbase.StepSpec{Class: tr.Step, ValidTime: vt}
	if len(group) > 1 {
		set, err := e.t.CreateMaterialSet(group)
		if err != nil {
			return fmt.Errorf("workflow: %s set: %w", tr.Step, err)
		}
		spec.Set = set
		e.Stats.Batches++
	} else {
		// Copy: group aliases the waiting slice, and Materials is appended
		// to below.
		spec.Materials = append([]ID(nil), group...)
	}

	spawnIDs := make([]ID, 0, len(spawns))
	for _, sp := range spawns {
		id, err := e.t.CreateMaterial(sp.Class, sp.Name, sp.State, vt)
		if err != nil {
			return fmt.Errorf("workflow: %s spawn: %w", tr.Step, err)
		}
		spawnIDs = append(spawnIDs, id)
		e.Stats.Spawned++
	}
	// Spawned materials are involved in (and start their history with) the
	// step that created them, as with associate_tclone.
	spec.Materials = append(spec.Materials, spawnIDs...)
	spec.Attrs = attrs

	step, err := e.t.RecordStep(spec)
	if err != nil {
		return fmt.Errorf("workflow: %s: %w", tr.Step, err)
	}
	e.Stats.Steps++
	e.Stats.StepsByClass[tr.Step]++

	for i, m := range group {
		next := tr.To
		if failed[i] {
			next = tr.FailTo
			e.Stats.Failures++
		}
		if err := e.t.SetState(m, next); err != nil {
			return fmt.Errorf("workflow: %s move: %w", tr.Step, err)
		}
	}

	if e.AfterStep != nil {
		all := append(append([]ID(nil), group...), spawnIDs...)
		if err := e.AfterStep(step, tr.Step, all); err != nil {
			return err
		}
	}
	return nil
}
