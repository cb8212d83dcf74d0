package wire

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"labflow/internal/labbase"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
)

// startPair brings up two identically populated servers — a reference the
// tests drive over a single connection (which the server executes strictly
// in order) and one they hammer concurrently — and returns their addresses
// plus a control client for each.
func startPair(t *testing.T) (refAddr, concAddr string, refClient, concClient *Client, mats []storage.OID) {
	t.Helper()
	start := func() (string, *Client) {
		db, err := labbase.Open(memstore.Open("qstress-mm"), labbase.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(db)
		srv.SetLogf(nil)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() {
			ln.Close()
			srv.Shutdown()
			db.Close()
		})
		c, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return ln.Addr().String(), c
	}
	refAddr, refClient = start()
	concAddr, concClient = start()
	mats, set1, steps1 := populateReadFixture(t, refClient)
	mats2, set2, steps2 := populateReadFixture(t, concClient)
	if !oidsEqual(mats, mats2) || set1 != set2 || !oidsEqual(steps1, steps2) {
		t.Fatal("fixture population diverged between servers")
	}
	return refAddr, concAddr, refClient, concClient, mats
}

// queryRequests builds raw OpQuery frames covering point queries, the
// involves index, scatter aggregates, and rule-based setof queries.
func queryRequests(mats []storage.OID) []rawFrame {
	enc := func(q string, max int) rawFrame {
		payload := append(encodeString(q), encodeUint(uint64(max))...)
		return rawFrame{op: OpQuery, payload: payload}
	}
	var reqs []rawFrame
	for _, m := range mats {
		reqs = append(reqs,
			enc(fmt.Sprintf("most_recent(%d, reading, V)", uint64(m)), 1),
			enc(fmt.Sprintf("history(%d, S)", uint64(m)), 0),
			enc(fmt.Sprintf("steps_involving(%d, L)", uint64(m)), 0),
		)
	}
	reqs = append(reqs,
		enc("state(M, waiting)", 0),
		enc("count_materials(clone, N)", 0),
		enc("count_steps(measure, N)", 0),
		enc("count_in_state(waiting, N)", 0),
		enc("setof(M, state(M, waiting), L), length(L, N)", 0),
		enc(fmt.Sprintf("steps_involving(%d, L), member(S, L), step(S, measure, T)", uint64(mats[0])), 0),
	)
	return reqs
}

// TestConcurrentQueryByteIdentical is the OpQuery declassification proof:
// the same query sequence, answered over one connection by the reference
// server and under concurrent hammering from many connections by the other,
// must be byte-identical frame for frame.
func TestConcurrentQueryByteIdentical(t *testing.T) {
	refAddr, concAddr, _, _, mats := startPair(t)
	reqs := queryRequests(mats)
	want := rawResponses(t, refAddr, reqs)
	for i, w := range want {
		if w[0] != statusOK {
			t.Fatalf("reference request %d failed: %q", i, w[1:])
		}
	}

	const conns = 8
	got := make([][][]byte, conns)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = rawResponses(t, concAddr, reqs)
		}(i)
	}
	wg.Wait()
	for i := range got {
		for j := range want {
			if !bytes.Equal(got[i][j], want[j]) {
				t.Errorf("conn %d, query %d: concurrent response differs from the reference:\n got %x\nwant %x",
					i, j, got[i][j], want[j])
			}
		}
	}
}

// TestConcurrentQueryWithWriteBatches races OpQuery connections against
// write batches on one server (run under -race): every query must
// succeed against some consistent snapshot while batches land. The same
// writes are then applied to the reference server, and the quiesced
// end-state answers must again be byte-identical — concurrency may reorder
// what a query observes mid-run, but it must not change where the database
// ends up or how queries read it.
func TestConcurrentQueryWithWriteBatches(t *testing.T) {
	refAddr, concAddr, refClient, concClient, mats := startPair(t)
	reqs := queryRequests(mats)

	const (
		readers   = 4
		perReader = 40
		batches   = 30
		batchLen  = 4
	)
	writeBatch := func(b int) []labbase.StepSpec {
		specs := make([]labbase.StepSpec, batchLen)
		for k := range specs {
			specs[k] = labbase.StepSpec{
				Class: "measure", ValidTime: int64(100000 + b*batchLen + k),
				Materials: []storage.OID{mats[(b+k)%len(mats)]},
				Attrs:     []labbase.AttrValue{{Name: "reading", Value: labbase.Int64(int64(b*batchLen + k))}},
			}
		}
		return specs
	}

	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cl, err := Dial(concAddr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < perReader; i++ {
				m := mats[(r+i)%len(mats)]
				sols, err := cl.Query(fmt.Sprintf("most_recent(%d, reading, V)", uint64(m)), 1)
				if err != nil {
					errs <- fmt.Errorf("reader %d: query during writes: %w", r, err)
					return
				}
				if len(sols) != 1 || sols[0]["V"] == "" {
					errs <- fmt.Errorf("reader %d: query returned %v mid-write", r, sols)
					return
				}
				if _, err := cl.Query(fmt.Sprintf("steps_involving(%d, L)", uint64(m)), 0); err != nil {
					errs <- fmt.Errorf("reader %d: involves query during writes: %w", r, err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			if _, err := concClient.PutSteps(writeBatch(b)); err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Replay the identical writes on the reference server, then compare
	// quiesced end states query by query.
	for b := 0; b < batches; b++ {
		if _, err := refClient.PutSteps(writeBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	want := rawResponses(t, refAddr, reqs)
	got := rawResponses(t, concAddr, reqs)
	for j := range want {
		if !bytes.Equal(got[j], want[j]) {
			t.Errorf("query %d: end-state response differs after concurrent batches:\n got %x\nwant %x",
				j, got[j], want[j])
		}
	}
}

// TestQueryUpdatesRejected pins OpQuery as read-only: it runs on a snapshot,
// so an update predicate is rejected with a clear error and nothing lands.
func TestQueryUpdatesRejected(t *testing.T) {
	c, _ := startServer(t)
	populateReadFixture(t, c)

	_, err := c.Query(`create_material(clone, query_made, waiting, 900, M)`, 0)
	if err == nil {
		t.Fatal("update query succeeded; want read-only rejection")
	}
	if !containsStr(err.Error(), "read-only") {
		t.Fatalf("rejection = %q; want it to say read-only", err)
	}
	if _, found, err := c.LookupMaterial("query_made"); err != nil || found {
		t.Fatalf("update landed despite rejection: %v %v", found, err)
	}
}
