package wrap

// Op names the call a span was recorded around. One enumeration serves all
// layers; a span's Layer says which interface the call belongs to.
type Op uint8

// Calls, grouped by the interface that declares them.
const (
	// storage.Manager and the labbase.Store transaction bracket.
	OpBegin Op = iota
	OpCommit
	OpAllocate
	OpAllocateCluster
	OpAllocateNear
	OpRead
	OpWrite
	OpFree
	OpRoot
	OpSetRoot

	// pagefile.Backing and ostore.LogFile.
	OpReadPage
	OpWritePage
	OpGrow
	OpSync
	OpLogReadAt
	OpLogWriteAt
	OpLogTruncate
	OpLogSync

	// labbase.Reader.
	OpMaterialClasses
	OpStepClasses
	OpStepClassVersions
	OpStates
	OpLookupMaterial
	OpGetMaterial
	OpState
	OpMaterialsInState
	OpCountInState
	OpCountMaterials
	OpCountSteps
	OpScanMaterials
	OpScanAllMaterials
	OpSetMembers
	OpGetStep
	OpScanSteps
	OpHistory
	OpStepsInvolving
	OpMostRecent
	OpMostRecentScan
	OpMostRecentAsOf
	OpAttrTimeline
	OpDump

	// labbase.Store mutations.
	OpDefineMaterialClass
	OpDefineAttr
	OpDefineStepClass
	OpDefineState
	OpCreateMaterial
	OpSetState
	OpCreateMaterialSet
	OpRecordStep
	OpPutSteps

	// The deductive bridge's hold on a snapshot: Snapshot() .. Close().
	OpQueryInterval

	// Benchmark worker operation classes (LayerClient).
	OpClientRead
	OpClientWrite
	OpClientView
	OpClientJoin
	OpClientCount
	OpClientClosure
	OpClientScan

	NumOps
)

var opNames = [NumOps]string{
	"Begin", "Commit", "Allocate", "AllocateCluster", "AllocateNear", "Read", "Write", "Free", "Root", "SetRoot",
	"ReadPage", "WritePage", "Grow", "Sync", "Log.ReadAt", "Log.WriteAt", "Log.Truncate", "Log.Sync",
	"MaterialClasses", "StepClasses", "StepClassVersions", "States", "LookupMaterial", "GetMaterial", "State",
	"MaterialsInState", "CountInState", "CountMaterials", "CountSteps", "ScanMaterials", "ScanAllMaterials",
	"SetMembers", "GetStep", "ScanSteps", "History", "StepsInvolving", "MostRecent", "MostRecentScan",
	"MostRecentAsOf", "AttrTimeline", "Dump",
	"DefineMaterialClass", "DefineAttr", "DefineStepClass", "DefineState", "CreateMaterial", "SetState",
	"CreateMaterialSet", "RecordStep", "PutSteps",
	"query",
	"read", "write", "view", "join", "count", "closure", "scan",
}

// String returns the method (or worker operation class) name.
func (o Op) String() string { return opNames[o] }

// Mutates reports whether a labbase- or storage-layer call belongs to the
// write path: everything a read-only request can never reach. Manager.Read
// is the one call both paths share, so it reports false here and is
// classified by the span that encloses it.
func (o Op) Mutates() bool {
	switch o {
	case OpBegin, OpCommit, OpAllocate, OpAllocateCluster, OpAllocateNear, OpWrite, OpFree, OpSetRoot:
		return true
	}
	return o >= OpDefineMaterialClass && o <= OpPutSteps
}
