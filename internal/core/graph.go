package core

import (
	"fmt"

	"labflow/internal/labbase"
	"labflow/internal/seqio"
	"labflow/internal/workflow"
)

// Workflow state names (Appendix B reconstruction). Clone states describe
// the clone's progress toward an incorporated sequence; tclone states
// describe the transposon-facilitated sequencing loop.
const (
	StCloneNew       = "c_received"
	StClonePrepped   = "c_prepped"
	StCloneGrowing   = "c_waiting_for_tclones"
	StCloneAssembled = "c_assembled"
	StCloneBlasted   = "c_blasted"
	StCloneDone      = "c_incorporated"

	StTcloneNew    = "t_new"
	StTcloneMapped = "t_mapped"
	StTcloneGelled = "t_waiting_for_sequencing"
	StTcloneDone   = "t_sequenced"
)

// AllStates lists every workflow state for schema definition.
var AllStates = []string{
	StCloneNew, StClonePrepped, StCloneGrowing, StCloneAssembled, StCloneBlasted, StCloneDone,
	StTcloneNew, StTcloneMapped, StTcloneGelled, StTcloneDone,
}

// Step class names of the LabFlow-1 workflow.
const (
	StepPrepClone       = "prep_clone"
	StepAssociateTclone = "associate_tclone"
	StepMapTransposon   = "map_transposon"
	StepRunGel          = "run_sequencing_gel"
	StepDetermineSeq    = "determine_sequence"
	StepAssembleSeq     = "assemble_sequence"
	StepBlastSearch     = "blast_search"
	StepIncorporate     = "incorporate_clone"
)

// Lab is the simulated laboratory: ground-truth sequences, transposon
// positions, accumulated reads, assembly bookkeeping, and the homology
// database that stands in for GenBank+BLAST.
type Lab struct {
	p   Params
	gen *seqio.Gen
	hom *seqio.HomologyDB
	asm seqio.Assembler // reused by every assemble_sequence step

	truth     map[workflow.ID]string // clone -> true insert sequence
	consensus map[workflow.ID]string // clone -> assembled consensus
	cloneOf   map[workflow.ID]workflow.ID
	tpos      map[workflow.ID]int // tclone -> transposon position
	reads     map[workflow.ID][]seqio.Read
	pending   map[workflow.ID]int // clone -> unsequenced tclones
	lineage   []string            // past insert sequences, for homolog families
	nameSeq   int
	accSeq    int
}

// NewLab builds the simulated laboratory for the given parameters.
func NewLab(p Params) (*Lab, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	hom, err := seqio.NewHomologyDB(8)
	if err != nil {
		return nil, err
	}
	return &Lab{
		p:         p,
		gen:       seqio.NewGen(p.Seed ^ 0x5E010), // distinct stream from the engine's
		hom:       hom,
		truth:     make(map[workflow.ID]string),
		consensus: make(map[workflow.ID]string),
		cloneOf:   make(map[workflow.ID]workflow.ID),
		tpos:      make(map[workflow.ID]int),
		reads:     make(map[workflow.ID][]seqio.Read),
		pending:   make(map[workflow.ID]int),
	}, nil
}

// DefineSchema installs the benchmark's user schema: the two-level EER
// material hierarchy, the workflow states, and the step classes with their
// version-1 attribute sets. Must run inside a transaction.
func DefineSchema(db labbase.Store) error {
	if _, err := db.DefineMaterialClass("material", ""); err != nil {
		return err
	}
	if _, err := db.DefineMaterialClass("clone", "material"); err != nil {
		return err
	}
	if _, err := db.DefineMaterialClass("tclone", "clone"); err != nil {
		return err
	}
	for _, s := range AllStates {
		if _, err := db.DefineState(s); err != nil {
			return err
		}
	}
	stepDefs := map[string][]labbase.AttrDef{
		StepPrepClone: {
			{Name: "concentration", Kind: labbase.KindFloat},
			{Name: "od_ratio", Kind: labbase.KindFloat},
			{Name: "insert_length", Kind: labbase.KindInt},
		},
		StepAssociateTclone: {
			{Name: "num_tclones", Kind: labbase.KindInt},
		},
		StepMapTransposon: {
			{Name: "position", Kind: labbase.KindInt},
			{Name: "ok", Kind: labbase.KindBool},
		},
		StepRunGel: {
			{Name: "gel_name", Kind: labbase.KindString},
			{Name: "lanes", Kind: labbase.KindInt},
			{Name: "voltage", Kind: labbase.KindFloat},
		},
		StepDetermineSeq: {
			{Name: "sequence", Kind: labbase.KindString},
			{Name: "quality", Kind: labbase.KindFloat},
			{Name: "read_length", Kind: labbase.KindInt},
			{Name: "ok", Kind: labbase.KindBool},
		},
		StepAssembleSeq: {
			{Name: "consensus", Kind: labbase.KindString},
			{Name: "coverage", Kind: labbase.KindFloat},
			{Name: "holes", Kind: labbase.KindInt},
			{Name: "length", Kind: labbase.KindInt},
		},
		StepBlastSearch: {
			{Name: "accession", Kind: labbase.KindString},
			{Name: "hits", Kind: labbase.KindList},
			{Name: "num_hits", Kind: labbase.KindInt},
		},
		StepIncorporate: {
			{Name: "map_position", Kind: labbase.KindInt},
			{Name: "ok", Kind: labbase.KindBool},
		},
	}
	for name, attrs := range stepDefs {
		if _, _, err := db.DefineStepClass(name, attrs); err != nil {
			return fmt.Errorf("core: define %s: %w", name, err)
		}
	}
	return nil
}

// Graph builds the LabFlow-1 workflow graph over this lab.
func (l *Lab) Graph() *workflow.Graph {
	p := l.p
	return &workflow.Graph{
		Name:      "labflow-1",
		RootClass: "clone",
		RootState: StCloneNew,
		Transitions: []*workflow.Transition{
			{
				Step: StepPrepClone, From: StCloneNew, To: StClonePrepped,
				Action: func(ctx *workflow.Ctx, mats []workflow.ID, failed bool) ([]labbase.AttrValue, []workflow.Spawn, error) {
					clone := mats[0]
					// Genomes contain families: some inserts are diverged
					// copies of earlier ones, so homology searches later
					// find real hits.
					if len(l.lineage) > 0 && ctx.Rng.Float64() < p.HomologFrac {
						base := l.lineage[ctx.Rng.Intn(len(l.lineage))]
						l.truth[clone] = l.gen.Mutate(base, p.MutationRate)
					} else {
						length := p.SeqLen + ctx.Rng.Intn(257) - 128 // mild length jitter
						if length < p.ReadLen {
							length = p.ReadLen
						}
						l.truth[clone] = l.gen.Sequence(length)
					}
					l.lineage = append(l.lineage, l.truth[clone])
					return []labbase.AttrValue{
						{Name: "concentration", Value: labbase.Float64(40 + 60*ctx.Rng.Float64())},
						{Name: "od_ratio", Value: labbase.Float64(1.6 + 0.4*ctx.Rng.Float64())},
						{Name: "insert_length", Value: labbase.Int64(int64(len(l.truth[clone])))},
					}, nil, nil
				},
			},
			{
				Step: StepAssociateTclone, From: StClonePrepped, To: StCloneGrowing,
				Action: func(ctx *workflow.Ctx, mats []workflow.ID, failed bool) ([]labbase.AttrValue, []workflow.Spawn, error) {
					clone := mats[0]
					spawns := make([]workflow.Spawn, p.TclonesPerClone)
					for i := range spawns {
						l.nameSeq++
						spawns[i] = workflow.Spawn{
							Class: "tclone",
							Name:  fmt.Sprintf("t%07d", l.nameSeq),
							State: StTcloneNew,
						}
					}
					l.pending[clone] = p.TclonesPerClone
					return []labbase.AttrValue{
						{Name: "num_tclones", Value: labbase.Int64(int64(p.TclonesPerClone))},
					}, spawns, nil
				},
			},
			{
				Step: StepMapTransposon, From: StTcloneNew, To: StTcloneMapped,
				FailTo: StTcloneNew, FailProb: p.MapFailProb,
				Action: func(ctx *workflow.Ctx, mats []workflow.ID, failed bool) ([]labbase.AttrValue, []workflow.Spawn, error) {
					t := mats[0]
					pos := int64(-1)
					if !failed {
						clone := l.cloneOf[t]
						span := len(l.truth[clone]) - p.ReadLen
						if span < 1 {
							span = 1
						}
						l.tpos[t] = ctx.Rng.Intn(span)
						pos = int64(l.tpos[t])
					}
					return []labbase.AttrValue{
						{Name: "position", Value: labbase.Int64(pos)},
						{Name: "ok", Value: labbase.Bool(!failed)},
					}, nil, nil
				},
			},
			{
				Step: StepRunGel, From: StTcloneMapped, To: StTcloneGelled,
				Batch: p.BatchSize,
				Action: func(ctx *workflow.Ctx, mats []workflow.ID, failed bool) ([]labbase.AttrValue, []workflow.Spawn, error) {
					return []labbase.AttrValue{
						{Name: "gel_name", Value: labbase.String(fmt.Sprintf("gel-%06d", ctx.ValidTime))},
						{Name: "lanes", Value: labbase.Int64(int64(len(mats)))},
						{Name: "voltage", Value: labbase.Float64(110 + 20*ctx.Rng.Float64())},
					}, nil, nil
				},
			},
			{
				Step: StepDetermineSeq, From: StTcloneGelled, To: StTcloneDone,
				FailTo: StTcloneMapped, FailProb: p.SeqFailProb,
				Action: func(ctx *workflow.Ctx, mats []workflow.ID, failed bool) ([]labbase.AttrValue, []workflow.Spawn, error) {
					t := mats[0]
					clone := l.cloneOf[t]
					if failed {
						return []labbase.AttrValue{
							{Name: "sequence", Value: labbase.String("")},
							{Name: "quality", Value: labbase.Float64(0)},
							{Name: "read_length", Value: labbase.Int64(0)},
							{Name: "ok", Value: labbase.Bool(false)},
						}, nil, nil
					}
					read := l.gen.ReadAt(l.truth[clone], l.tpos[t], p.ReadLen, p.ReadErrRate)
					l.reads[clone] = append(l.reads[clone], read)
					l.pending[clone]--
					return []labbase.AttrValue{
						{Name: "sequence", Value: labbase.String(read.Seq)},
						{Name: "quality", Value: labbase.Float64(read.Quality)},
						{Name: "read_length", Value: labbase.Int64(int64(len(read.Seq)))},
						{Name: "ok", Value: labbase.Bool(true)},
					}, nil, nil
				},
			},
			{
				Step: StepAssembleSeq, From: StCloneGrowing, To: StCloneAssembled,
				Guard: func(ctx *workflow.Ctx, m workflow.ID) bool {
					n, ok := l.pending[m]
					return ok && n <= 0
				},
				Action: func(ctx *workflow.Ctx, mats []workflow.ID, failed bool) ([]labbase.AttrValue, []workflow.Spawn, error) {
					clone := mats[0]
					asm := l.asm.Assemble(l.reads[clone])
					l.consensus[clone] = asm.Consensus
					delete(l.reads, clone)
					delete(l.pending, clone)
					return []labbase.AttrValue{
						{Name: "consensus", Value: labbase.String(asm.Consensus)},
						{Name: "coverage", Value: labbase.Float64(asm.Coverage)},
						{Name: "holes", Value: labbase.Int64(int64(asm.Holes))},
						{Name: "length", Value: labbase.Int64(int64(len(asm.Consensus)))},
					}, nil, nil
				},
			},
			{
				Step: StepBlastSearch, From: StCloneAssembled, To: StCloneBlasted,
				Action: func(ctx *workflow.Ctx, mats []workflow.ID, failed bool) ([]labbase.AttrValue, []workflow.Spawn, error) {
					clone := mats[0]
					cons := l.consensus[clone]
					l.accSeq++
					acc := fmt.Sprintf("LF%07d", l.accSeq)
					// Search, then publish for future searches.
					hits := l.hom.SearchAndPublish(acc, cons, p.MaxHits, p.MinScore)
					hitVals := make([]labbase.Value, len(hits))
					for i, h := range hits {
						hitVals[i] = labbase.ListOf(labbase.String(h.Accession), labbase.Float64(h.Score))
					}
					return []labbase.AttrValue{
						{Name: "accession", Value: labbase.String(acc)},
						{Name: "hits", Value: labbase.ListOf(hitVals...)},
						{Name: "num_hits", Value: labbase.Int64(int64(len(hits)))},
					}, nil, nil
				},
			},
			{
				Step: StepIncorporate, From: StCloneBlasted, To: StCloneDone,
				Action: func(ctx *workflow.Ctx, mats []workflow.ID, failed bool) ([]labbase.AttrValue, []workflow.Spawn, error) {
					return []labbase.AttrValue{
						{Name: "map_position", Value: labbase.Int64(int64(ctx.Rng.Intn(3_000_000)))},
						{Name: "ok", Value: labbase.Bool(true)},
					}, nil, nil
				},
			},
		},
	}
}

// NoteSpawns records clone/tclone parentage; the runner calls it from the
// engine's AfterStep hook.
func (l *Lab) NoteSpawns(class string, mats []workflow.ID) {
	if class != StepAssociateTclone || len(mats) < 2 {
		return
	}
	clone := mats[0]
	for _, t := range mats[1:] {
		l.cloneOf[t] = clone
	}
}

// Published reports how many consensus sequences have been published to the
// homology database.
func (l *Lab) Published() int { return l.hom.Len() }
