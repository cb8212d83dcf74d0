package shard

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"labflow/internal/labbase"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
	"labflow/internal/wire"
)

// serveStore fronts one store with a wire server on addr ("127.0.0.1:0"
// for a fresh port) and returns the bound address and a stopper.
func serveStore(t *testing.T, db labbase.Store, addr string) (string, func()) {
	t.Helper()
	srv := wire.NewServer(db)
	srv.SetLogf(nil)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		srv.Shutdown()
		<-done
	}
}

// startCluster brings up n member servers over memstores on TCP and
// returns their topology: openShards' cluster, over sockets.
func startCluster(t *testing.T, n int) Topology {
	t.Helper()
	topo := Topology{Shards: make([]string, n)}
	for k := 0; k < n; k++ {
		m, err := OpenMember(memstore.Open("test-mm"), k, n, labbase.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		addr, stop := serveStore(t, m, "127.0.0.1:0")
		t.Cleanup(stop)
		topo.Shards[k] = addr
	}
	return topo
}

func openTestRouter(t *testing.T, topo Topology, opts RouterOptions) *Router {
	t.Helper()
	r, err := OpenRouter(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// identityWorkload drives one comprehensive pass — schema, materials,
// sets, explicit and implicit steps, batches, every read, and a gallery
// of failure shapes — against any Store, appending one line per operation
// result (errors included, verbatim). Running it against any two
// configurations of the same shard count must produce identical logs: that
// is the distributed byte-identity contract, data bytes and error bytes
// both.
func identityWorkload(db labbase.Store, n int) []string {
	var log []string
	out := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	fail := func(what string, err error) { out("%s ERR %v", what, err) }

	// Mutations outside the bracket must be refused.
	if _, err := db.CreateMaterial("sample", "early", "received", 1); err != nil {
		fail("early-create", err)
	}
	if _, err := db.DefineState("early"); err != nil {
		fail("early-define", err)
	}

	// Schema bracket.
	if err := db.Begin(); err != nil {
		fail("begin", err)
	}
	for _, def := range []func() error{
		func() error { _, err := db.DefineMaterialClass("sample", ""); return err },
		func() error { _, err := db.DefineMaterialClass("gel", "sample"); return err },
		func() error { _, err := db.DefineState("received"); return err },
		func() error { _, err := db.DefineState("done"); return err },
		func() error { _, err := db.DefineAttr("reading", labbase.KindInt); return err },
		func() error {
			_, _, err := db.DefineStepClass("measure", []labbase.AttrDef{{Name: "reading", Kind: labbase.KindInt}})
			return err
		},
	} {
		if err := def(); err != nil {
			fail("define", err)
		}
	}
	// Duplicate definition: error bytes must match too.
	if _, err := db.DefineState("done"); err != nil {
		fail("dup-state", err)
	}

	// Materials, grouped by home shard so sets can be built same-shard and
	// cross-shard deliberately.
	const mats = 18
	names := make([]string, mats)
	oids := make([]storage.OID, mats)
	byShard := make([][]int, n)
	for i := range names {
		names[i] = fmt.Sprintf("m-%d", i)
		oid, err := db.CreateMaterial("sample", names[i], "received", int64(i))
		if err != nil {
			fail("create", err)
			continue
		}
		oids[i] = oid
		k := ShardFor(names[i], n)
		byShard[k] = append(byShard[k], i)
		out("create %s -> %v", names[i], oid)
	}
	var same []storage.OID
	var cross []storage.OID
	for _, idx := range byShard {
		if len(idx) >= 2 && same == nil {
			same = []storage.OID{oids[idx[0]], oids[idx[1]]}
		}
	}
	if n > 1 {
		for k, idx := range byShard {
			if len(idx) > 0 && ShardOfOID(oids[idx[0]]) == k {
				cross = append(cross, oids[idx[0]])
			}
			if len(cross) == 2 {
				break
			}
		}
	}
	setOID, err := db.CreateMaterialSet(same)
	if err != nil {
		fail("set", err)
	} else {
		out("set -> %v", setOID)
	}
	if len(cross) == 2 {
		if _, err := db.CreateMaterialSet(cross); err != nil {
			fail("cross-set", err)
		}
	}
	if err := db.SetState(oids[0], "done"); err != nil {
		fail("setstate", err)
	}
	if err := db.SetState(oids[1], "nowhere"); err != nil {
		fail("setstate-bad", err)
	}
	// In-bracket steps: explicit class, then an implicit one (exercises the
	// in-bracket schema broadcast).
	for i := 0; i < 6; i++ {
		oid, err := db.RecordStep(labbase.StepSpec{
			Class:     "measure",
			ValidTime: int64(100 + i),
			Materials: []storage.OID{oids[i]},
			Attrs:     []labbase.AttrValue{{Name: "reading", Value: labbase.Int64(int64(i * 11))}},
		})
		if err != nil {
			fail("step", err)
		} else {
			out("step -> %v", oid)
		}
	}
	if _, err := db.RecordStep(labbase.StepSpec{
		Class:     "prep",
		ValidTime: 200,
		Materials: []storage.OID{oids[2]},
		Attrs:     []labbase.AttrValue{{Name: "temp", Value: labbase.Int64(37)}},
	}); err != nil {
		fail("implicit-step", err)
	}
	// In-bracket batch joins the transaction sequentially.
	if batch, err := db.PutSteps([]labbase.StepSpec{
		{Class: "measure", ValidTime: 300, Materials: []storage.OID{oids[3]},
			Attrs: []labbase.AttrValue{{Name: "reading", Value: labbase.Int64(1)}}},
		{Class: "measure", ValidTime: 301, Materials: []storage.OID{oids[4]},
			Attrs: []labbase.AttrValue{{Name: "reading", Value: labbase.Int64(2)}}},
	}); err != nil {
		fail("txn-batch", err)
	} else {
		out("txn-batch -> %v", batch)
	}
	if err := db.Commit(); err != nil {
		fail("commit", err)
	}

	// Out-of-bracket batch: fans out one transaction per touched shard,
	// with an implicit class of its own.
	var stepOIDs []storage.OID
	specs := make([]labbase.StepSpec, mats)
	for i := range specs {
		specs[i] = labbase.StepSpec{
			Class:     "wash",
			ValidTime: int64(400 + i),
			Materials: []storage.OID{oids[i]},
			Attrs:     []labbase.AttrValue{{Name: "cycles", Value: labbase.Int64(int64(i))}},
		}
	}
	if batch, err := db.PutSteps(specs); err != nil {
		fail("batch", err)
	} else {
		stepOIDs = batch
		out("batch -> %v", batch)
	}
	// Batch with an unroutable entry: rejected whole, nothing recorded.
	if len(cross) == 2 {
		if _, err := db.PutSteps([]labbase.StepSpec{
			{Class: "wash", ValidTime: 500, Materials: []storage.OID{oids[0]}},
			{Class: "wash", ValidTime: 501, Materials: cross},
		}); err != nil {
			fail("cross-batch", err)
		}
	}
	// Batch with an entry that fails on its shard (a step OID is not a
	// material): per-shard atomic, error names the original index.
	if len(stepOIDs) == mats {
		if _, err := db.PutSteps([]labbase.StepSpec{
			{Class: "wash", ValidTime: 600, Materials: []storage.OID{oids[5]},
				Attrs: []labbase.AttrValue{{Name: "cycles", Value: labbase.Int64(9)}}},
			{Class: "wash", ValidTime: 601, Materials: []storage.OID{stepOIDs[0]}},
		}); err != nil {
			fail("bad-batch", err)
		}
	}

	// Reads, routed and scattered.
	for i, name := range names {
		oid, ok := db.LookupMaterial(name)
		out("lookup %s -> %v %v", name, oid, ok)
		if i >= 3 {
			continue
		}
		m, err := db.GetMaterial(oid)
		if err != nil {
			fail("get", err)
		} else {
			out("get %s -> %+v", name, *m)
		}
		st, err := db.State(oid)
		out("state %s -> %q err=%v", name, st, err)
		h, err := db.History(oid)
		out("history %s -> %v err=%v", name, h, err)
		v, src, ok, err := db.MostRecent(oid, "reading")
		out("mr %s -> %v %v %v err=%v", name, v, src, ok, err)
		v, src, ok, err = db.MostRecentScan(oid, "cycles")
		out("mrs %s -> %v %v %v err=%v", name, v, src, ok, err)
		v, src, ok, err = db.MostRecentAsOf(oid, "cycles", 350)
		out("mrao %s -> %v %v %v err=%v", name, v, src, ok, err)
		tl, err := db.AttrTimeline(oid, "reading")
		out("timeline %s -> %v err=%v", name, tl, err)
		inv, err := db.StepsInvolving(oid)
		out("involving %s -> %v err=%v", name, inv, err)
	}
	if _, ok := db.LookupMaterial("nobody"); ok {
		out("lookup nobody unexpectedly found")
	}
	if _, err := db.GetMaterial(oids[0] + 7777); err != nil {
		fail("get-bogus", err)
	}
	if len(stepOIDs) > 0 {
		s, err := db.GetStep(stepOIDs[0])
		if err != nil {
			fail("getstep", err)
		} else {
			out("getstep -> %+v", *s)
		}
		if _, err := db.GetStep(oids[0]); err != nil {
			fail("getstep-material", err)
		}
	}
	members, err := db.SetMembers(setOID)
	out("members -> %v err=%v", members, err)

	for _, state := range []string{"received", "done", "nowhere"} {
		ms, err := db.MaterialsInState(state)
		out("instate %s -> %v err=%v", state, ms, err)
		c, err := db.CountInState(state)
		out("countstate %s -> %d err=%v", state, c, err)
	}
	for _, class := range []string{"sample", "gel"} {
		c, err := db.CountMaterials(class)
		out("countmat %s -> %d err=%v", class, c, err)
	}
	for _, class := range []string{"measure", "wash", "prep"} {
		c, err := db.CountSteps(class)
		out("countstep %s -> %d err=%v", class, c, err)
	}
	var scanned []string
	if err := db.ScanMaterials("sample", func(m *labbase.Material) error {
		scanned = append(scanned, fmt.Sprintf("%v:%s", m.OID, m.Name))
		return nil
	}); err != nil {
		fail("scan", err)
	}
	out("scan -> %v", scanned)
	count := 0
	if err := db.ScanAllMaterials(func(m *labbase.Material) error {
		count++
		return nil
	}); err != nil {
		fail("scanall", err)
	}
	out("scanall -> %d", count)
	stopErr := errors.New("stop here")
	err = db.ScanAllMaterials(func(m *labbase.Material) error { return stopErr })
	out("scanstop -> %v", err)
	var stepsSeen []storage.OID
	if err := db.ScanSteps("wash", func(s *labbase.Step) error {
		stepsSeen = append(stepsSeen, s.OID)
		return nil
	}); err != nil {
		fail("scansteps", err)
	}
	out("scansteps -> %v", stepsSeen)

	out("classes %v states %v stepclasses %v", db.MaterialClasses(), db.States(), db.StepClasses())
	vers, err := db.StepClassVersions("wash")
	out("versions -> %v err=%v", vers, err)
	dump, err := db.Dump()
	out("dump -> %+v err=%v", dump, err)
	name, _ := db.StoreStats()
	out("store %s", name)
	return log
}

// TestRouterMatchesInProcess: the identity workload through an in-process
// 3-shard cluster (Open, members on the in-memory network) must produce
// the exact same log — data and error bytes — as through a router over 3
// member servers on TCP. Only the connection under the wire frames
// differs, so every test that runs on Open runs the serving configuration.
func TestRouterMatchesInProcess(t *testing.T) {
	const n = 3
	want := identityWorkload(openTestRouter(t, startCluster(t, n), RouterOptions{}), n)
	got := identityWorkload(openShards(t, n), n)

	if len(got) != len(want) {
		t.Fatalf("log length: in-process %d lines, TCP %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d diverges:\nTCP:        %s\nin-process: %s", i, want[i], got[i])
		}
	}
}

// TestOpenWidePutSteps: a PutSteps fan-out whose every sub-batch frame is
// wider than a bufio buffer (4 KiB) completes over the in-memory network.
// net.Pipe has no buffer, so this holds only because a flight sends one
// frame and reads its reply before the connection carries another
// (pipeListener).
func TestOpenWidePutSteps(t *testing.T) {
	const n, perShard = 3, 40
	db := openShards(t, n)
	oids := make([]storage.OID, n)
	for _, name := range loadWorkload(t, db, 12) {
		oid, _ := db.LookupMaterial(name)
		oids[ShardOfOID(oid)] = oid
	}
	before, err := db.CountSteps("measure")
	if err != nil || slices.Contains(oids, storage.NilOID) {
		t.Fatalf("workload left shards without a material (%v) or uncounted: %v", oids, err)
	}

	note := strings.Repeat("x", 200) // 40 entries of >200 bytes: an 8 KiB frame per shard
	var specs []labbase.StepSpec
	for i := 0; i < perShard; i++ {
		for k, oid := range oids {
			specs = append(specs, labbase.StepSpec{
				Class: "measure", ValidTime: int64(i), Materials: []storage.OID{oid},
				Attrs: []labbase.AttrValue{{Name: "note", Value: labbase.String(fmt.Sprintf("%d/%d %s", k, i, note))}},
			})
		}
	}
	got, err := db.PutSteps(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, oid := range got {
		if k := ShardOfOID(oid); k != i%n {
			t.Fatalf("entry %d landed on shard %d, want %d", i, k, i%n)
		}
	}
	if count, err := db.CountSteps("measure"); err != nil || count != before+n*perShard {
		t.Fatalf("CountSteps = %d, %v; want %d", count, err, before+n*perShard)
	}
}

// TestOpenCloseLeavesNoGoroutine: Close on a router from Open stops what
// Open started — the servers' accept loops and connection goroutines — so
// twenty clusters opened, used and closed leave no goroutine behind.
func TestOpenCloseLeavesNoGoroutine(t *testing.T) {
	start := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		db, err := Open([]storage.Manager{memstore.Open("test-mm"), memstore.Open("test-mm")}, labbase.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		loadWorkload(t, db, 4)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for polls := 0; runtime.NumGoroutine() > start; polls++ {
		if polls == 1000 {
			t.Fatalf("%d goroutines a second after closing 20 clusters, %d before opening them", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRouterOverOneServerMatchesPlain pins the 1-server degenerate case:
// a Router over a single server backed by a plain labbase.DB must be
// byte-identical to that DB — no shard prefixes, no name suffix.
func TestRouterOverOneServerMatchesPlain(t *testing.T) {
	plain, err := labbase.Open(memstore.Open("plain-mm"), labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	want := identityWorkload(plain, 1)

	served, err := labbase.Open(memstore.Open("plain-mm"), labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	addr, stop := serveStore(t, served, "127.0.0.1:0")
	defer stop()
	r := openTestRouter(t, Topology{Shards: []string{addr}}, RouterOptions{})
	got := identityWorkload(r, 1)

	if len(got) != len(want) {
		t.Fatalf("log length: router %d lines, plain %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d diverges:\nplain:  %s\nrouter: %s", i, want[i], got[i])
		}
	}
}

// TestRouterSentinels verifies sentinel identity survives the full
// router → wire → server → store path: errors.Is at the router layer must
// classify exactly as it would in-process (satellite: wire error fidelity).
func TestRouterSentinels(t *testing.T) {
	r := openShards(t, 2)

	// ErrNoTransaction: raised locally by the router (the servers would
	// auto-wrap, which is exactly the divergence the router prevents).
	if _, err := r.CreateMaterial("c", "x", "s", 0); !errors.Is(err, labbase.ErrNoTransaction) {
		t.Errorf("CreateMaterial outside bracket = %v, want ErrNoTransaction", err)
	}

	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DefineMaterialClass("sample", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DefineState("received"); err != nil {
		t.Fatal(err)
	}
	// ErrUnknownState across the wire.
	if _, err := r.CreateMaterial("sample", "a", "nowhere", 0); !errors.Is(err, labbase.ErrUnknownState) {
		t.Errorf("unknown state = %v, want ErrUnknownState", err)
	}
	// ErrUnknownClass across the wire.
	if _, err := r.CreateMaterial("mystery", "b", "received", 0); !errors.Is(err, labbase.ErrUnknownClass) {
		t.Errorf("unknown class = %v, want ErrUnknownClass", err)
	}
	var a, b storage.OID
	for i := 0; a == storage.NilOID || b == storage.NilOID; i++ {
		if i > 1000 {
			t.Fatal("no names found for both shards")
		}
		name := fmt.Sprintf("m-%d", i)
		oid, err := r.CreateMaterial("sample", name, "received", int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if ShardFor(name, 2) == 0 && a == storage.NilOID {
			a = oid
		} else if ShardFor(name, 2) == 1 && b == storage.NilOID {
			b = oid
		}
	}
	// ErrCrossShard from the shared routing helper (raised router-side).
	if _, err := r.CreateMaterialSet([]storage.OID{a, b}); !errors.Is(err, ErrCrossShard) {
		t.Errorf("cross-shard set = %v, want ErrCrossShard", err)
	}
	// ErrNoSuchObject across the wire.
	if _, err := r.GetMaterial(a + 7777); !errors.Is(err, storage.ErrNoSuchObject) {
		t.Errorf("bogus OID = %v, want ErrNoSuchObject", err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}

	// A failing batch entry surfaces as a *BatchError whose index is the
	// original batch position, with the entry's own sentinel inside.
	steps, err := r.PutSteps([]labbase.StepSpec{
		{Class: "wash", ValidTime: 1, Materials: []storage.OID{a}},
		{Class: "wash", ValidTime: 2, Materials: []storage.OID{b}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.PutSteps([]labbase.StepSpec{
		{Class: "wash", ValidTime: 3, Materials: []storage.OID{a}},
		{Class: "wash", ValidTime: 4, Materials: []storage.OID{steps[1]}},
	})
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("bad batch = %v, want *shard.BatchError", err)
	}
	if be.Index != 1 {
		t.Errorf("BatchError.Index = %d, want 1 (re-stitched original position)", be.Index)
	}
	if !errors.Is(err, labbase.ErrNotMaterial) {
		t.Errorf("batch error chain = %v, want ErrNotMaterial inside", err)
	}
}

// TestRouterRefusesMismatchedTopology: a server advertising a different
// shard identity than the topology assigns it must be refused at open.
func TestRouterRefusesMismatchedTopology(t *testing.T) {
	m, err := OpenMember(memstore.Open("cluster-mm"), 1, 3, labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	addr, stop := serveStore(t, m, "127.0.0.1:0")
	defer stop()

	// Shard 1-of-3 offered as a 1-server topology.
	if _, err := OpenRouter(Topology{Shards: []string{addr}}, RouterOptions{}); err == nil ||
		!strings.Contains(err.Error(), "topology mismatch") {
		t.Errorf("1-server topology over member 1/3 = %v, want topology mismatch", err)
	}

	// A plain DB (advertising 0 of 1) cannot join a 2-server topology.
	plain, err := labbase.Open(memstore.Open("cluster-mm"), labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	paddr, pstop := serveStore(t, plain, "127.0.0.1:0")
	defer pstop()
	if _, err := OpenRouter(Topology{Shards: []string{paddr, paddr}}, RouterOptions{}); err == nil ||
		!strings.Contains(err.Error(), "topology mismatch") {
		t.Errorf("2-server topology over plain DBs = %v, want topology mismatch", err)
	}
}

// TestRouterRefusesMixedStores: the store fingerprint in the handshake
// must agree across shards, or the shard map is not one database.
func TestRouterRefusesMixedStores(t *testing.T) {
	topo := Topology{Shards: make([]string, 2)}
	for k, name := range []string{"alpha-mm", "beta-mm"} {
		m, err := OpenMember(memstore.Open(name), k, 2, labbase.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		addr, stop := serveStore(t, m, "127.0.0.1:0")
		t.Cleanup(stop)
		topo.Shards[k] = addr
	}
	if _, err := OpenRouter(topo, RouterOptions{}); err == nil ||
		!strings.Contains(err.Error(), "store mismatch") {
		t.Errorf("mixed-store topology = %v, want store mismatch", err)
	}
}

// TestRouterDeadShardFailsFast kills one shard server mid-flight: every
// operation touching it must fail fast with ErrShardDown naming the shard
// (no hangs, nothing applied elsewhere), and the health monitor must
// re-admit the shard once its server is back on the same address.
func TestRouterDeadShardFailsFast(t *testing.T) {
	const n = 2
	members := make([]*Member, n)
	stops := make([]func(), n)
	topo := Topology{Shards: make([]string, n)}
	for k := 0; k < n; k++ {
		m, err := OpenMember(memstore.Open("cluster-mm"), k, n, labbase.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		members[k] = m
		t.Cleanup(func() { m.Close() })
		topo.Shards[k], stops[k] = serveStore(t, m, "127.0.0.1:0")
	}
	defer stops[0]()
	r := openTestRouter(t, topo, RouterOptions{HealthInterval: 10 * time.Millisecond})

	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DefineMaterialClass("sample", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DefineState("received"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.DefineStepClass("wash", nil); err != nil {
		t.Fatal(err)
	}
	var live []storage.OID
	for i := 0; len(live) < 4; i++ {
		name := fmt.Sprintf("m-%d", i)
		oid, err := r.CreateMaterial("sample", name, "received", int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if ShardFor(name, n) == 0 {
			live = append(live, oid)
		}
	}
	onLive := live[0]
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	liveSteps, err := r.CountSteps("wash")
	if err != nil || liveSteps != 0 {
		t.Fatalf("baseline CountSteps = %d, %v", liveSteps, err)
	}

	// Kill shard 1 and wait for the router to notice.
	stops[1]()
	deadline := time.After(5 * time.Second)
	for {
		_, err := r.CountMaterials("sample")
		if errors.Is(err, ErrShardDown) {
			if !strings.Contains(err.Error(), "shard 1") {
				t.Fatalf("down error does not name the shard: %v", err)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatalf("router never reported ErrShardDown; last err: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}

	// A fan-out batch touching the dead shard is rejected whole — nothing
	// lands on the live shard either.
	bad := make([]labbase.StepSpec, 0, len(live))
	for i, oid := range live {
		bad = append(bad, labbase.StepSpec{Class: "wash", ValidTime: int64(i), Materials: []storage.OID{oid}})
	}
	// Address one entry to the dead shard via a synthetic OID tag.
	deadOID := withShard(withoutShard(bad[3].Materials[0]), 1)
	bad[3].Materials = []storage.OID{deadOID}
	if _, err := r.PutSteps(bad); !errors.Is(err, ErrShardDown) {
		t.Fatalf("batch over dead shard = %v, want ErrShardDown", err)
	}
	if got, err := members[0].CountSteps("wash"); err != nil || got != 0 {
		t.Fatalf("live shard recorded %d steps from a rejected batch (err=%v), want 0", got, err)
	}
	// Routed single-shard traffic to the live shard keeps flowing.
	if _, err := r.State(onLive); err != nil {
		t.Fatalf("live-shard read during outage: %v", err)
	}

	// Revive shard 1 on its old address; the health monitor re-admits it.
	addr1, stop1 := serveStore(t, members[1], topo.Shards[1])
	defer stop1()
	if addr1 != topo.Shards[1] {
		t.Fatalf("revived server bound %s, want %s", addr1, topo.Shards[1])
	}
	deadline = time.After(5 * time.Second)
	for {
		if _, err := r.CountMaterials("sample"); err == nil {
			break
		}
		select {
		case <-deadline:
			t.Fatal("router never re-admitted the revived shard")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestRouterMetrics: the router's per-shard histograms and fan-out
// counters must record the traffic the workload actually generated.
func TestRouterMetrics(t *testing.T) {
	const n = 3
	r := openShards(t, n)
	identityWorkload(r, n)

	st := r.Metrics()
	if len(st.PerShard) != n {
		t.Fatalf("PerShard has %d histograms, want %d", len(st.PerShard), n)
	}
	for k := range st.PerShard {
		if st.PerShard[k].Count() == 0 {
			t.Errorf("shard %d histogram empty; every shard saw traffic", k)
		}
	}
	if st.Fanouts[n] == 0 {
		t.Errorf("no %d-wide fan-outs recorded: %v", n, st.Fanouts)
	}
}

// TestRouterConcurrentReads races scattered and routed reads with
// out-of-bracket PutSteps writers through one Router — the -race proof
// that the pool checkout and metrics paths are safe under fan-out.
func TestRouterConcurrentReads(t *testing.T) {
	const n = 2
	r := openShards(t, n)

	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DefineMaterialClass("sample", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DefineState("received"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DefineAttr("cycles", labbase.KindInt); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.DefineStepClass("wash", []labbase.AttrDef{{Name: "cycles", Kind: labbase.KindInt}}); err != nil {
		t.Fatal(err)
	}
	const mats = 12
	oids := make([]storage.OID, mats)
	for i := range oids {
		oid, err := r.CreateMaterial("sample", fmt.Sprintf("m-%d", i), "received", int64(i))
		if err != nil {
			t.Fatal(err)
		}
		oids[i] = oid
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}

	const (
		writers = 3
		readers = 4
		rounds  = 20
	)
	var wg sync.WaitGroup
	errs := make([]error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < rounds; b++ {
				specs := make([]labbase.StepSpec, 4)
				for i := range specs {
					specs[i] = labbase.StepSpec{
						Class:     "wash",
						ValidTime: int64(w*100000 + b*100 + i),
						Materials: []storage.OID{oids[(w*7+b*3+i)%mats]},
						Attrs:     []labbase.AttrValue{{Name: "cycles", Value: labbase.Int64(int64(b))}},
					}
				}
				if _, err := r.PutSteps(specs); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < rounds; b++ {
				if _, err := r.CountMaterials("sample"); err != nil {
					errs[writers+g] = err
					return
				}
				if _, err := r.History(oids[(g+b)%mats]); err != nil {
					errs[writers+g] = err
					return
				}
				if _, _, _, err := r.MostRecentScan(oids[(g*5+b)%mats], "cycles"); err != nil {
					errs[writers+g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	total, err := r.CountSteps("wash")
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(writers * rounds * 4); total != want {
		t.Fatalf("CountSteps = %d, want %d", total, want)
	}
}

// stallStore is a shard member whose next SetState blocks until released,
// standing in for a server too slow for the router's I/O deadline.
type stallStore struct {
	*Member
	stall   atomic.Bool
	release chan struct{}
}

func (s *stallStore) SetState(oid storage.OID, state string) error {
	if s.stall.CompareAndSwap(true, false) {
		<-s.release
	}
	return s.Member.SetState(oid, state)
}

// TestRouterBracketTimeoutFailsCommit: when a mutation inside a bracket
// times out, the server may still answer it late, and the pinned bracket
// connection is out of step with it from then on. Commit on that bracket
// must report failure — reading the mutation's late reply as the commit
// ack would acknowledge a commit the server has not performed.
func TestRouterBracketTimeoutFailsCommit(t *testing.T) {
	m, err := OpenMember(memstore.Open("cluster-mm"), 0, 1, labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	slow := &stallStore{Member: m, release: make(chan struct{})}
	addr, stop := serveStore(t, slow, "127.0.0.1:0")
	t.Cleanup(stop)
	r := openTestRouter(t, Topology{Shards: []string{addr}},
		RouterOptions{DialTimeout: 100 * time.Millisecond, HealthInterval: -1})

	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DefineMaterialClass("sample", ""); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"received", "done"} {
		if _, err := r.DefineState(s); err != nil {
			t.Fatal(err)
		}
	}
	oid, err := r.CreateMaterial("sample", "m-0", "received", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	slow.stall.Store(true)
	if err := r.SetState(oid, "done"); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled mutation = %v, want os.ErrDeadlineExceeded", err)
	}
	close(slow.release) // the server now answers the mutation, late
	if err := r.SetState(oid, "received"); err == nil {
		t.Error("mutation after the timeout consumed the stale reply and reported success")
	}
	if err := r.Commit(); err == nil {
		t.Fatal("Commit on a bracket whose connection timed out reported success")
	}
}
