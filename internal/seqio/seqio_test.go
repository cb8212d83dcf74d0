package seqio

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSequenceDeterministic(t *testing.T) {
	a := NewGen(7).Sequence(500)
	b := NewGen(7).Sequence(500)
	if a != b {
		t.Error("same seed must give same sequence")
	}
	c := NewGen(8).Sequence(500)
	if a == c {
		t.Error("different seeds should differ")
	}
	if len(a) != 500 {
		t.Errorf("length = %d", len(a))
	}
	for _, ch := range a {
		if !strings.ContainsRune("ACGT", ch) {
			t.Fatalf("bad base %q", ch)
		}
	}
}

func TestMutateRate(t *testing.T) {
	g := NewGen(1)
	seq := g.Sequence(10000)
	mut := g.Mutate(seq, 0.1)
	id := Identity(seq, mut)
	// 10% mutation with 1/4 silent: expect identity around 0.925.
	if id < 0.9 || id > 0.95 {
		t.Errorf("identity after 10%% mutation = %v", id)
	}
	if got := g.Mutate(seq, 0); got != seq {
		t.Error("zero-rate mutation changed the sequence")
	}
}

func TestReadAt(t *testing.T) {
	g := NewGen(2)
	tpl := g.Sequence(1000)
	r := g.ReadAt(tpl, 100, 300, 0)
	if r.Start != 100 || len(r.Seq) != 300 {
		t.Fatalf("read = start %d len %d", r.Start, len(r.Seq))
	}
	if r.Seq != tpl[100:400] {
		t.Error("error-free read must match the template")
	}
	if r.Quality < 0.97 {
		t.Errorf("error-free quality = %v", r.Quality)
	}
	// Truncated at the end.
	r = g.ReadAt(tpl, 900, 300, 0)
	if len(r.Seq) != 100 {
		t.Errorf("truncated read len = %d, want 100", len(r.Seq))
	}
	// Clamped start.
	r = g.ReadAt(tpl, -5, 10, 0)
	if r.Start != 0 {
		t.Errorf("clamped start = %d", r.Start)
	}
	// With errors, identity drops roughly by the error rate.
	r = g.ReadAt(tpl, 0, 1000, 0.1)
	id := Identity(r.Seq, tpl)
	if id < 0.88 || id > 0.96 {
		t.Errorf("identity with 10%% errors = %v", id)
	}
}

func TestAssemble(t *testing.T) {
	g := NewGen(3)
	tpl := g.Sequence(1200)
	var reads []Read
	for start := 0; start < 1200; start += 150 {
		// 3x coverage with modest errors.
		for i := 0; i < 3; i++ {
			reads = append(reads, g.ReadAt(tpl, start, 400, 0.02))
		}
	}
	asm := new(Assembler).Assemble(reads)
	if len(asm.Consensus) != 1200 {
		t.Fatalf("consensus length = %d", len(asm.Consensus))
	}
	if id := Identity(asm.Consensus, tpl); id < 0.99 {
		t.Errorf("consensus identity = %v, want > 0.99 (majority vote should fix errors)", id)
	}
	if asm.Coverage < 2 {
		t.Errorf("coverage = %v", asm.Coverage)
	}
	if asm.Holes != 0 {
		t.Errorf("holes = %d", asm.Holes)
	}
	// A gap in coverage yields N holes.
	gappy := new(Assembler).Assemble([]Read{{Seq: "ACGT", Start: 0}, {Seq: "ACGT", Start: 8}})
	if gappy.Holes != 4 || gappy.Consensus[4:8] != "NNNN" {
		t.Errorf("gappy = %+v", gappy)
	}
	if a := new(Assembler).Assemble(nil); a.Consensus != "" || a.Coverage != 0 {
		t.Errorf("empty assembly = %+v", a)
	}
}

// TestAssemblerReuse runs one Assembler over read sets that grow, shrink and
// leave holes where an earlier set had votes: every result must equal a
// fresh Assembler's, so no count or consensus byte leaks between calls.
func TestAssemblerReuse(t *testing.T) {
	g := NewGen(5)
	var a Assembler
	for _, n := range []int{900, 40, 1500, 0, 300, 300, 2000, 12} {
		tpl := g.Sequence(n)
		var reads []Read
		for start := 0; start < n; start += 97 {
			if start/97%5 == 3 {
				continue // a gap in coverage
			}
			reads = append(reads, g.ReadAt(tpl, start, 150, 0.05), g.ReadAt(tpl, start, 60, 0.05))
		}
		got, want := a.Assemble(reads), new(Assembler).Assemble(reads)
		if got != want {
			t.Fatalf("length %d: reused assembler = %+v, fresh = %+v", n, got, want)
		}
	}
}

func TestHomologySearch(t *testing.T) {
	g := NewGen(4)
	db, err := NewHomologyDB(8)
	if err != nil {
		t.Fatal(err)
	}
	base := g.Sequence(800)
	db.SearchAndPublish("ACC0001", base, 0, 0)
	db.SearchAndPublish("ACC0002", g.Mutate(base, 0.05), 0, 0) // close homolog
	unrelated := g.Sequence(800)
	db.SearchAndPublish("ACC0003", unrelated, 0, 0)

	hits := db.Search(g.Mutate(base, 0.02), 10, 0.05)
	if len(hits) < 2 {
		t.Fatalf("hits = %v, want the two homologs", hits)
	}
	if hits[0].Accession != "ACC0001" {
		t.Errorf("best hit = %v, want ACC0001", hits[0])
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Error("hits not sorted by score")
		}
	}
	for _, h := range hits {
		if h.Accession == "ACC0003" && h.Score > 0.1 {
			t.Errorf("unrelated sequence scored %v", h.Score)
		}
	}
	// maxHits cap.
	if got := db.Search(base, 1, 0); len(got) != 1 {
		t.Errorf("maxHits=1 returned %d", len(got))
	}
	// Replacing an accession: the publishing search still scores the old
	// entry, later searches only the new one.
	hits = db.SearchAndPublish("ACC0003", unrelated, 1, 0)
	if len(hits) != 1 || hits[0] != (Hit{Accession: "ACC0003", Score: 1}) {
		t.Errorf("re-publishing search = %v, want the replaced entry at score 1", hits)
	}
	db.SearchAndPublish("ACC0003", base, 0, 0)
	for _, h := range db.Search(unrelated, 10, 0.5) {
		t.Errorf("replaced sequence still found: %v", h)
	}
	hits = db.Search(base, 10, 0.5)
	found := false
	for _, h := range hits {
		if h.Accession == "ACC0003" {
			found = true
		}
	}
	if !found {
		t.Error("replaced accession should now be a strong hit")
	}
	if db.Len() != 3 {
		t.Errorf("Len = %d, want 3", db.Len())
	}
	if _, err := NewHomologyDB(2); err == nil {
		t.Error("k=2 should be rejected")
	}
}

func TestGC(t *testing.T) {
	if got := GC("GGCC"); got != 1 {
		t.Errorf("GC = %v", got)
	}
	if got := GC("AATT"); got != 0 {
		t.Errorf("GC = %v", got)
	}
	if got := GC("ACGT"); got != 0.5 {
		t.Errorf("GC = %v", got)
	}
	if got := GC(""); got != 0 {
		t.Errorf("GC empty = %v", got)
	}
}

// TestQuickSelfSimilarity: any sequence is its own best homolog with score 1.
func TestQuickSelfSimilarity(t *testing.T) {
	g := NewGen(99)
	db, _ := NewHomologyDB(8)
	f := func(n uint8) bool {
		length := 50 + int(n)%400
		seq := g.Sequence(length)
		db.SearchAndPublish("self", seq, 0, 0)
		hits := db.Search(seq, 1, 0)
		return len(hits) == 1 && hits[0].Score == 1 && hits[0].Accession == "self"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIdentityBounds: Identity is within [0,1] and 1 on self.
func TestQuickIdentityBounds(t *testing.T) {
	g := NewGen(123)
	f := func(a, b uint8) bool {
		s1 := g.Sequence(10 + int(a)%100)
		s2 := g.Sequence(10 + int(b)%100)
		id := Identity(s1, s2)
		return id >= 0 && id <= 1 && Identity(s1, s1) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// refDB is the homology oracle as first written: one k-mer hash set per
// entry, and a search that checks every entry one query k-mer at a time. It
// is the reference HomologyDB's postings index must agree with hit for hit.
type refDB struct {
	k       int
	entries []refEntry
	byAcc   map[string]int
}

type refEntry struct {
	accession string
	kmers     map[uint64]struct{}
}

func newRefDB(k int) *refDB { return &refDB{k: k, byAcc: make(map[string]int)} }

func (db *refDB) Add(accession, seq string) {
	e := refEntry{accession: accession, kmers: db.kmerSet(seq)}
	if i, ok := db.byAcc[accession]; ok {
		db.entries[i] = e
		return
	}
	db.byAcc[accession] = len(db.entries)
	db.entries = append(db.entries, e)
}

func (db *refDB) kmerSet(seq string) map[uint64]struct{} {
	out := make(map[uint64]struct{})
	if len(seq) < db.k {
		return out
	}
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
			out[h] = struct{}{}
		}
	}
	return out
}

func (db *refDB) Search(seq string, maxHits int, minScore float64) []Hit {
	q := db.kmerSet(seq)
	if len(q) == 0 {
		return nil
	}
	var hits []Hit
	for _, e := range db.entries {
		inter := 0
		for k := range q {
			if _, ok := e.kmers[k]; ok {
				inter++
			}
		}
		if inter == 0 {
			continue
		}
		union := len(q) + len(e.kmers) - inter
		score := float64(inter) / float64(union)
		if score >= minScore {
			hits = append(hits, Hit{Accession: e.accession, Score: score})
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
	return hits
}

// sameHits fails t unless got and want name the same accessions in the same
// order with bit-identical scores.
func sameHits(t *testing.T, what string, got, want []Hit) {
	t.Helper()
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		ok = got[i].Accession == want[i].Accession &&
			math.Float64bits(got[i].Score) == math.Float64bits(want[i].Score)
	}
	if !ok {
		t.Fatalf("%s: hits = %v, reference = %v", what, got, want)
	}
}

// TestHomologySearchMatchesReference grows a database and the reference side
// by side from seeded sequences (mutated families, assemblies with 'N'
// holes, sequences shorter than k, re-added accessions) and checks every
// SearchAndPublish against the reference's Search then Add, and every later
// search, at several maxHits and minScore settings.
func TestHomologySearchMatchesReference(t *testing.T) {
	for _, k := range []int{4, 8, 11, 16} {
		for seed := int64(1); seed <= 2; seed++ {
			g := NewGen(seed*100 + int64(k))
			rng := rand.New(rand.NewSource(seed))
			db, err := NewHomologyDB(k)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefDB(k)
			var published []string
			pick := func() string { return published[rng.Intn(len(published))] }
			for i := 0; i < 40; i++ {
				var seq string
				switch r := rng.Intn(6); {
				case r < 2 || len(published) == 0:
					seq = g.Sequence(20 + rng.Intn(600))
				case r < 4:
					seq = g.Mutate(pick(), []float64{0.01, 0.08, 0.3}[rng.Intn(3)])
				case r == 4:
					// Two reads with a gap between them: Assemble fills the
					// gap with 'N', which restarts the k-mer window.
					tpl := pick()
					cut := rng.Intn(len(tpl) + 1)
					gap := cut + 1 + rng.Intn(k+5)
					seq = new(Assembler).Assemble([]Read{g.ReadAt(tpl, 0, cut, 0.02), g.ReadAt(tpl, gap, len(tpl), 0.02)}).Consensus
				default:
					seq = g.Sequence(rng.Intn(k))
				}
				acc := fmt.Sprintf("ACC%04d", i)
				if i > 0 && rng.Intn(5) == 0 {
					acc = fmt.Sprintf("ACC%04d", rng.Intn(i))
				}
				maxHits := []int{0, 1, 3, 1000}[rng.Intn(4)]
				minScore := []float64{0, 0.02, 0.3}[rng.Intn(3)]
				want := ref.Search(seq, maxHits, minScore)
				ref.Add(acc, seq)
				what := fmt.Sprintf("k=%d seed=%d publish=%d maxHits=%d minScore=%v", k, seed, i, maxHits, minScore)
				sameHits(t, what, db.SearchAndPublish(acc, seq, maxHits, minScore), want)
				published = append(published, seq)
				if db.Len() != len(ref.entries) {
					t.Fatalf("Len = %d, reference %d", db.Len(), len(ref.entries))
				}
				queries := []string{seq, g.Mutate(pick(), 0.05), g.Sequence(k - 1)}
				for qi, q := range queries {
					for _, maxHits := range []int{0, 1, 3, 1000} {
						for _, minScore := range []float64{0, 0.02, 0.3} {
							what := fmt.Sprintf("k=%d seed=%d add=%d query=%d maxHits=%d minScore=%v", k, seed, i, qi, maxHits, minScore)
							sameHits(t, what, db.Search(q, maxHits, minScore), ref.Search(q, maxHits, minScore))
						}
					}
				}
			}
		}
	}
}

// FuzzHomologySearch drives a database and the reference through the same
// script and fails on any search where they disagree. The script is records
// separated by ','; a record's first byte picks one of eight accessions (so
// re-adds are common) and the rest is the sequence, searched for, then
// searched for and published in one SearchAndPublish (the reference's Search
// then Add), then searched for again. Bytes other than A, C, G and T act as
// 'N' holes.
func FuzzHomologySearch(f *testing.F) {
	f.Add(uint8(0), uint8(10), uint8(0), []byte("\x00ACGTACGTAC,\x01ACGTNACGTA,\x00ACGTACGTAA,\x02ACG"))
	f.Add(uint8(4), uint8(1), uint8(20), []byte("\x00AACCGGTTAACCGGTTAACC,\x01AACCGGTTAACCGGTTAACG,\x02AACCGGTTNNAACCGGTTAA,\x01TTTTTTTTTTTTTTTTTTTT"))
	f.Add(uint8(12), uint8(0), uint8(100), []byte("\x03"+NewGen(1).Sequence(80)+",\x04"+NewGen(1).Sequence(60)+",\x03"+NewGen(2).Sequence(40)))
	f.Fuzz(func(t *testing.T, k, maxHits, minScore uint8, script []byte) {
		kk := 4 + int(k)%13
		db, err := NewHomologyDB(kk)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefDB(kk)
		ms := float64(minScore) / 255
		for i, rec := range bytes.Split(script, []byte{','}) {
			if len(rec) == 0 {
				continue
			}
			acc := fmt.Sprintf("A%d", rec[0]%8)
			seq := string(rec[1:])
			what := fmt.Sprintf("k=%d record %d", kk, i)
			want := ref.Search(seq, int(maxHits)%12, ms)
			sameHits(t, what, db.Search(seq, int(maxHits)%12, ms), want)
			sameHits(t, what+" publishing", db.SearchAndPublish(acc, seq, int(maxHits)%12, ms), want)
			ref.Add(acc, seq)
			sameHits(t, what+" after add", db.Search(seq, int(maxHits)%12, ms), ref.Search(seq, int(maxHits)%12, ms))
			if db.Len() != len(ref.entries) {
				t.Fatalf("%s: Len = %d, reference %d", what, db.Len(), len(ref.entries))
			}
		}
	})
}
