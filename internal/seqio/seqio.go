// Package seqio is the synthetic genome substrate: deterministic DNA
// sequence generation, simulated sequencing reads with base-call errors and
// quality values, consensus assembly, and a homology-search oracle standing
// in for BLAST over GenBank/EMBL.
//
// The LabFlow-1 workload needs a source of step results with realistic
// shapes — variable-length sequence strings, per-read qualities, assembly
// coverage, and scored homology hit lists (the paper's "set and list
// generation" requirement). Real instruments and the public databases are
// unavailable here, so everything is synthesized from a seed; the same seed
// always produces the same laboratory.
package seqio

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
)

var bases = [4]byte{'A', 'C', 'G', 'T'}

// Gen deterministically generates sequences and reads.
type Gen struct {
	rng *rand.Rand
}

// NewGen returns a generator seeded with seed.
func NewGen(seed int64) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed))}
}

// Sequence returns a random DNA sequence of length n.
func (g *Gen) Sequence(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = bases[g.rng.Intn(4)]
	}
	return string(b)
}

// Mutate returns a copy of seq with each base substituted independently with
// probability rate — used to synthesize homologous families.
func (g *Gen) Mutate(seq string, rate float64) string {
	b := []byte(seq)
	for i := range b {
		if g.rng.Float64() < rate {
			b[i] = bases[g.rng.Intn(4)]
		}
	}
	return string(b)
}

// Read is a simulated sequencing read: a (possibly erroneous) substring of a
// template with a known start position and a mean base quality.
type Read struct {
	Seq     string
	Start   int
	Quality float64 // mean per-base accuracy estimate in [0, 1]
}

// ReadAt simulates sequencing n bases of template starting at start, with
// independent base-call errors at errRate. Reads off the end are truncated.
func (g *Gen) ReadAt(template string, start, n int, errRate float64) Read {
	if start < 0 {
		start = 0
	}
	if start > len(template) {
		start = len(template)
	}
	end := min(start+n, len(template))
	b := []byte(template[start:end])
	errs := 0
	for i := range b {
		if g.rng.Float64() < errRate {
			b[i] = bases[g.rng.Intn(4)]
			errs++
		}
	}
	q := 1.0
	if len(b) > 0 {
		// The instrument's quality estimate is noisy around the truth.
		q = 1 - float64(errs)/float64(len(b))
		q += (g.rng.Float64() - 0.5) * 0.02
		q = max(0, min(1, q))
	}
	return Read{Seq: string(b), Start: start, Quality: q}
}

// Assembly is the result of assembling reads against a common coordinate
// system.
type Assembly struct {
	Consensus string
	// Coverage is the mean number of reads covering each consensus base.
	Coverage float64
	// Holes is the number of positions no read covered (consensus 'N').
	Holes int
}

// Assembler builds majority-vote consensus sequences, reusing its per-base
// vote counts and consensus buffer from one call to the next.
type Assembler struct {
	counts [][4]int32
	cons   []byte
}

// Assemble builds a majority-vote consensus from reads with known start
// positions (the simulator knows where each read came from, standing in for
// an alignment step).
func (a *Assembler) Assemble(reads []Read) Assembly {
	length := 0
	for _, r := range reads {
		if end := r.Start + len(r.Seq); end > length {
			length = end
		}
	}
	if length == 0 {
		return Assembly{}
	}
	a.counts = slices.Grow(a.counts[:0], length)[:length]
	counts := a.counts
	clear(counts)
	for _, r := range reads {
		for i := 0; i < len(r.Seq); i++ {
			if bi := baseIndex(r.Seq[i]); bi >= 0 {
				counts[r.Start+i][bi]++
			}
		}
	}
	a.cons = slices.Grow(a.cons[:0], length)[:length]
	cons := a.cons
	covered := 0
	totalCover := 0
	holes := 0
	for i, c := range counts {
		best, bestN, tot := -1, int32(0), 0
		for bi, n := range c {
			tot += int(n)
			if n > bestN {
				best, bestN = bi, n
			}
		}
		if best < 0 {
			cons[i] = 'N'
			holes++
			continue
		}
		cons[i] = bases[best]
		covered++
		totalCover += tot
	}
	asm := Assembly{Consensus: string(cons), Holes: holes}
	if covered > 0 {
		asm.Coverage = float64(totalCover) / float64(covered)
	}
	return asm
}

// baseCodes maps A, C, G and T to 0-3 and every other byte to -1.
var baseCodes = func() (t [256]int8) {
	for i := range t {
		t[i] = -1
	}
	for i, b := range bases {
		t[b] = int8(i)
	}
	return t
}()

func baseIndex(b byte) int { return int(baseCodes[b]) }

// Identity returns the fraction of positions where a and b agree (over the
// shorter length); 0 if either is empty.
func Identity(a, b string) float64 {
	n := min(len(a), len(b))
	if n == 0 {
		return 0
	}
	same := 0
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(n)
}

// Hit is one homology-search result.
type Hit struct {
	Accession string
	Score     float64 // k-mer Jaccard similarity in [0, 1]
}

// HomologyDB is the BLAST/GenBank stand-in: a k-mer index over the sequences
// published so far, searched by Jaccard similarity.
//
// The index is inverted: each k-mer keeps a postings list of the entries that
// hold it, in publish order, and each entry its count of distinct k-mers. A
// search walks only the postings of the query's k-mers, so its cost is the
// length of those lists rather than the size of the database.
type HomologyDB struct {
	k        int
	entries  []dbEntry
	byAcc    map[string]int32
	postings map[uint32][]int32

	kms     []uint32 // per-call scratch: the query's k-mers
	touched []int32  // per-call scratch: entries with a nonzero counter
}

type dbEntry struct {
	accession string
	kmers     int  // distinct k-mers
	replaced  bool // re-added since: its postings are stale
	inter     int  // the walk's intersection counter, zero between calls
}

// NewHomologyDB returns an empty database with k-mer size k (k in [4, 16];
// 8 is a good default).
func NewHomologyDB(k int) (*HomologyDB, error) {
	if k < 4 || k > 16 {
		return nil, fmt.Errorf("seqio: k-mer size %d out of range [4, 16]", k)
	}
	return &HomologyDB{k: k, byAcc: make(map[string]int32), postings: make(map[uint32][]int32)}, nil
}

// Len returns the number of database entries.
func (db *HomologyDB) Len() int { return len(db.byAcc) }

// Search returns up to maxHits entries with similarity >= minScore, best
// first; ties break by accession so results are deterministic. Search counts
// in the database's entries, so it must not run concurrently with itself or
// with SearchAndPublish.
func (db *HomologyDB) Search(seq string, maxHits int, minScore float64) []Hit {
	q := db.kmers(seq)
	slices.Sort(q)
	hits, _ := db.walk(slices.Compact(q), -1, maxHits, minScore)
	return hits
}

// SearchAndPublish returns what Search(seq, maxHits, minScore) returns and
// then publishes seq under accession, in one walk over seq's k-mers. Re-adding
// an accession replaces its sequence: the old entry is still scored by this
// search, then stays in the postings marked replaced, and later searches skip
// it.
func (db *HomologyDB) SearchAndPublish(accession, seq string, maxHits int, minScore float64) []Hit {
	id := int32(len(db.entries))
	hits, distinct := db.walk(db.kmers(seq), id, maxHits, minScore)
	if old, ok := db.byAcc[accession]; ok {
		db.entries[old].replaced = true
	}
	db.byAcc[accession] = id
	db.entries = append(db.entries, dbEntry{accession: accession, kmers: distinct})
	return hits
}

// kmers returns seq's k-mers in sequence order, repeats included, in the
// database's scratch slice. Any byte other than A, C, G or T (an assembly's
// 'N' hole) restarts the k-mer window.
func (db *HomologyDB) kmers(seq string) []uint32 {
	out := db.kms[:0]
	var h uint64
	mask := uint64(1)<<(2*uint(db.k)) - 1
	valid := 0
	for i := 0; i < len(seq); i++ {
		bi := baseIndex(seq[i])
		if bi < 0 {
			h, valid = 0, 0
			continue
		}
		h = (h<<2 | uint64(bi)) & mask
		valid++
		if valid >= db.k {
			out = append(out, uint32(h))
		}
	}
	db.kms = out
	return out
}

// walk scores the live entries against the query k-mers q and returns the
// ranked hits and q's distinct k-mer count. With id < 0, q must hold no
// repeats. With id >= 0, q may repeat k-mers and id is appended to the
// postings of each distinct one after they are counted: a list that already
// ends in id marks a k-mer seen earlier in q.
func (db *HomologyDB) walk(q []uint32, id int32, maxHits int, minScore float64) ([]Hit, int) {
	touched := db.touched[:0]
	distinct := 0
	for _, km := range q {
		ps := db.postings[km]
		if id >= 0 && len(ps) > 0 && ps[len(ps)-1] == id {
			continue
		}
		distinct++
		for _, e := range ps {
			if db.entries[e].inter == 0 {
				touched = append(touched, e)
			}
			db.entries[e].inter++
		}
		if id >= 0 {
			db.postings[km] = append(ps, id)
		}
	}
	db.touched = touched
	var hits []Hit
	for _, e := range touched {
		ent := &db.entries[e]
		inter := ent.inter
		ent.inter = 0
		if ent.replaced {
			continue
		}
		union := distinct + ent.kmers - inter
		score := float64(inter) / float64(union)
		if score >= minScore {
			hits = append(hits, Hit{Accession: ent.accession, Score: score})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Accession < hits[j].Accession
	})
	if maxHits > 0 && len(hits) > maxHits {
		hits = hits[:maxHits]
	}
	return hits, distinct
}

// GC returns the G+C fraction of a sequence (a routine lab statistic).
func GC(seq string) float64 {
	if len(seq) == 0 {
		return 0
	}
	n := strings.Count(seq, "G") + strings.Count(seq, "C")
	return float64(n) / float64(len(seq))
}
