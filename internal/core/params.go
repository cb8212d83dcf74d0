// Package core implements the LabFlow-1 benchmark itself: the Appendix-B
// genome-mapping workflow graph, the workload generator that drives it, the
// interval-based runner behind the paper's Section-10 table, and the
// companion experiments (operation profile, clustering ablation, schema
// evolution, buffer sweep).
package core

import (
	"fmt"
	"path/filepath"

	"labflow/internal/labbase/shard"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
	"labflow/internal/storage/ostore"
	"labflow/internal/storage/texas"
)

// Params are the benchmark knobs. The scale unit "X" is BaseClones clones
// pushed through the entire workflow; the paper's table samples resources
// each time the database grows by another 0.5X.
type Params struct {
	// Seed drives every random choice; equal seeds give identical event
	// streams on every storage manager.
	Seed int64

	// BaseClones is the 1X scale: clones fully processed per two intervals.
	BaseClones int
	// Intervals is the number of 0.5X growth intervals (4 = run to 2.0X).
	Intervals int

	// TclonesPerClone is the transposon-clone fan-out per clone.
	TclonesPerClone int
	// BatchSize is the gel-run batch (one material_set per gel).
	BatchSize int

	// SeqLen is the clone insert length in bases; ReadLen the read length.
	SeqLen  int
	ReadLen int
	// ReadErrRate is the per-base sequencing error probability.
	ReadErrRate float64

	// MapFailProb and SeqFailProb drive the retry loops in the graph.
	MapFailProb float64
	SeqFailProb float64

	// OutOfOrderProb is the fraction of steps recorded with a valid time up
	// to OutOfOrderSkew ticks in the past.
	OutOfOrderProb float64
	OutOfOrderSkew int64

	// MostRecentPerStep is how many most-recent probes follow each tracking
	// update; CountTicks is how often (in ticks) the counting queries run.
	MostRecentPerStep int
	CountTicks        int

	// MaxHits and MinScore shape the homology (BLAST) hit lists.
	MaxHits  int
	MinScore float64
	// HomologFrac is the fraction of clones whose insert derives from an
	// earlier clone's (a mutated copy), so homology searches find real
	// families; MutationRate is the per-base divergence within a family.
	HomologFrac  float64
	MutationRate float64

	// PoolPages bounds the OStore buffer pool; ResidentPages bounds Texas
	// residency (0 = unbounded, as with ample RAM).
	PoolPages     int
	ResidentPages int

	// Shards routes the run through the hash-partitioned shard.DB facade:
	// 0 keeps the plain labbase.DB, 1 fronts the store with a 1-shard
	// facade (byte-identical by contract, used to prove it). table10's
	// gel batches span arbitrary materials, so N>1 is rejected — the
	// shard-mix workload in bench/ measures multi-shard traffic.
	Shards int
}

// DefaultParams returns the standard configuration. At these settings a
// full 2.0X run generates roughly 3,000 step instances and a database of a
// few megabytes — scaled so the whole Section-10 table regenerates in
// seconds while still exceeding the bounded buffer pools.
func DefaultParams() Params {
	return Params{
		Seed:              1,
		BaseClones:        60,
		Intervals:         4,
		TclonesPerClone:   10,
		BatchSize:         16,
		SeqLen:            1600,
		ReadLen:           400,
		ReadErrRate:       0.02,
		MapFailProb:       0.08,
		SeqFailProb:       0.12,
		OutOfOrderProb:    0.05,
		OutOfOrderSkew:    50,
		MostRecentPerStep: 2,
		CountTicks:        5,
		MaxHits:           10,
		MinScore:          0.02,
		HomologFrac:       0.35,
		MutationRate:      0.08,
		PoolPages:         192,
		ResidentPages:     192,
	}
}

// Validate rejects unusable parameter combinations.
func (p Params) Validate() error {
	switch {
	case p.Shards < 0 || p.Shards > shard.MaxShards:
		return fmt.Errorf("core: Shards must be in [0, %d]", shard.MaxShards)
	case p.BaseClones <= 0:
		return fmt.Errorf("core: BaseClones must be positive")
	case p.Intervals <= 0:
		return fmt.Errorf("core: Intervals must be positive")
	case p.TclonesPerClone <= 0:
		return fmt.Errorf("core: TclonesPerClone must be positive")
	case p.BatchSize <= 0:
		return fmt.Errorf("core: BatchSize must be positive")
	case p.SeqLen < p.ReadLen:
		return fmt.Errorf("core: SeqLen (%d) must be >= ReadLen (%d)", p.SeqLen, p.ReadLen)
	case p.MapFailProb < 0 || p.MapFailProb >= 1 || p.SeqFailProb < 0 || p.SeqFailProb >= 1:
		return fmt.Errorf("core: failure probabilities must be in [0, 1)")
	}
	return nil
}

// StoreKind names the five server versions of the paper's Section-10 table.
type StoreKind int

const (
	// StoreOStore is the page-server manager (ObjectStore analog).
	StoreOStore StoreKind = iota
	// StoreTexasTC is the Texas manager with client clustering.
	StoreTexasTC
	// StoreTexas is the plain Texas manager.
	StoreTexas
	// StoreOStoreMM and StoreTexasMM are the main-memory versions.
	StoreOStoreMM
	StoreTexasMM
)

// AllStoreKinds lists the versions in the paper's column order.
var AllStoreKinds = []StoreKind{StoreOStore, StoreTexasTC, StoreTexas, StoreOStoreMM, StoreTexasMM}

// String implements fmt.Stringer with the paper's version names.
func (k StoreKind) String() string {
	switch k {
	case StoreOStore:
		return "OStore"
	case StoreTexasTC:
		return "Texas+TC"
	case StoreTexas:
		return "Texas"
	case StoreOStoreMM:
		return "OStore-mm"
	case StoreTexasMM:
		return "Texas-mm"
	default:
		return fmt.Sprintf("StoreKind(%d)", int(k))
	}
}

// ParseStoreKind resolves a version name ("ostore", "texas+tc", ...).
func ParseStoreKind(s string) (StoreKind, error) {
	for _, k := range AllStoreKinds {
		if s == k.String() || s == lower(k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown store %q (want one of OStore, Texas+TC, Texas, OStore-mm, Texas-mm)", s)
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// MakeStore opens a fresh storage manager of the given kind under dir
// (ignored for the main-memory versions), creating dir as needed.
func MakeStore(kind StoreKind, dir string, p Params) (storage.Manager, error) {
	switch kind {
	case StoreOStore, StoreTexas, StoreTexasTC:
		if err := mkdir(dir); err != nil {
			return nil, err
		}
	}
	switch kind {
	case StoreOStore:
		return ostore.Open(ostore.Options{
			Path:      filepath.Join(dir, "ostore.db"),
			PoolPages: p.PoolPages,
		})
	case StoreTexas:
		return texas.Open(texas.Options{
			Path:             filepath.Join(dir, "texas.db"),
			MaxResidentPages: p.ResidentPages,
		})
	case StoreTexasTC:
		return texas.Open(texas.Options{
			Path:             filepath.Join(dir, "texastc.db"),
			MaxResidentPages: p.ResidentPages,
			Clustering:       true,
		})
	case StoreOStoreMM:
		return memstore.Open("OStore-mm"), nil
	case StoreTexasMM:
		return memstore.Open("Texas-mm"), nil
	default:
		return nil, fmt.Errorf("core: unknown store kind %d", kind)
	}
}
