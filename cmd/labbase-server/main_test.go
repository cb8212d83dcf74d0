package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"labflow/internal/labbase"
	"labflow/internal/labbase/shard"
	"labflow/internal/storage"
	"labflow/internal/wire"
)

// TestMain lets the test binary re-exec as the server itself, so the
// subprocess tests below exercise the real main() — flag parsing, signal
// handling, store open/close — not a lookalike.
func TestMain(m *testing.M) {
	if os.Getenv("LABBASE_SERVER_REEXEC") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// startServerProc launches the server as a subprocess on a kernel-assigned
// port and waits for its addrfile. The caller owns shutdown.
func startServerProc(t *testing.T, dir string, extra ...string) (addr string, cmd *exec.Cmd) {
	t.Helper()
	addrfile := filepath.Join(dir, fmt.Sprintf("addr-%d", time.Now().UnixNano())) //lint:allow wallclock unique temp file name in a test
	args := append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrfile}, extra...)
	cmd = exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LABBASE_SERVER_REEXEC=1")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		b, err := os.ReadFile(addrfile)
		if err == nil && len(b) > 0 {
			return strings.TrimSpace(string(b)), cmd
		}
		if i > 500 {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("server subprocess never wrote its addrfile")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// terminate SIGTERMs the subprocess and asserts a clean exit.
func terminate(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("server did not exit cleanly on SIGTERM: %v", err)
	}
}

// TestGracefulShutdownReopensStore is the graceful-shutdown acceptance
// test: SIGTERM must drain the server and close the persistent store
// cleanly enough that a fresh process reopens it with all data intact.
func TestGracefulShutdownReopensStore(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "lab.db")
	addr, cmd := startServerProc(t, dir, "-store", "texas+tc", "-path", dbPath)

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineMaterialClass("sample", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineState("received"); err != nil {
		t.Fatal(err)
	}
	const mats = 10
	oids := make([]storage.OID, mats)
	for i := range oids {
		oid, err := c.CreateMaterial("sample", fmt.Sprintf("m-%d", i), "received", int64(i))
		if err != nil {
			t.Fatal(err)
		}
		oids[i] = oid
	}
	specs := make([]labbase.StepSpec, mats)
	for i := range specs {
		specs[i] = labbase.StepSpec{
			Class:     "wash",
			ValidTime: int64(100 + i),
			Materials: []storage.OID{oids[i]},
			Attrs:     []labbase.AttrValue{{Name: "cycles", Value: labbase.Int64(int64(i))}},
		}
	}
	if _, err := c.PutSteps(specs); err != nil {
		t.Fatal(err)
	}
	c.Close()
	terminate(t, cmd)

	// Same path, fresh process: everything must still be there.
	addr2, cmd2 := startServerProc(t, dir, "-store", "texas+tc", "-path", dbPath)
	defer terminate(t, cmd2)
	c2, err := wire.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	n, err := c2.CountMaterials("sample")
	if err != nil || n != mats {
		t.Fatalf("after reopen: CountMaterials = %d, %v; want %d", n, err, mats)
	}
	s, err := c2.CountSteps("wash")
	if err != nil || s != mats {
		t.Fatalf("after reopen: CountSteps = %d, %v; want %d", s, err, mats)
	}
	v, _, ok, err := c2.MostRecent(oids[3], "cycles")
	if err != nil || !ok {
		t.Fatalf("after reopen: MostRecent = %v, %v, %v", v, ok, err)
	}
}

// TestReplicationNeedsOStore runs the real main() with -ship or -standby
// over stores that have no redo log: each must exit non-zero naming the
// store, before it ever binds its listen address.
func TestReplicationNeedsOStore(t *testing.T) {
	for _, tc := range []struct {
		store string
		flags []string
	}{
		{"texas", []string{"-ship", "127.0.0.1:1"}},
		{"texas+tc", []string{"-ship", "127.0.0.1:1"}},
		{"texas", []string{"-standby"}},
		{"texas+tc", []string{"-standby"}},
		{"ostore-mm", []string{"-standby"}},
	} {
		dir := t.TempDir()
		addrfile := filepath.Join(dir, "addr")
		args := append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrfile,
			"-store", tc.store, "-path", filepath.Join(dir, "lab.db")}, tc.flags...)
		// A server that wrongly starts serving is killed at the deadline
		// and then fails the checks below.
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], args...)
		cmd.Env = append(os.Environ(), "LABBASE_SERVER_REEXEC=1")
		out, err := cmd.CombinedOutput()
		cancel()
		if err == nil {
			t.Fatalf("%s %v: server started; want a refusal", tc.store, tc.flags)
		}
		if !strings.Contains(string(out), fmt.Sprintf("%q", tc.store)) || !strings.Contains(string(out), "ostore") {
			t.Errorf("%s %v: refusal does not name the store and ostore: %s", tc.store, tc.flags, out)
		}
		if _, err := os.Stat(addrfile); err == nil {
			t.Errorf("%s %v: server bound its address before refusing", tc.store, tc.flags)
		}
	}
}

// TestShardMemberFlag covers the -shard k/n cluster mode end to end in a
// real subprocess: the OpShardInfo handshake advertises the identity, OIDs
// carry the shard tag, and a misrouted CreateMaterial is refused with
// ErrCrossShard instead of silently minting on the wrong shard.
func TestShardMemberFlag(t *testing.T) {
	dir := t.TempDir()
	addr, cmd := startServerProc(t, dir, "-store", "ostore-mm", "-shard", "1/2")
	defer terminate(t, cmd)

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	idx, cnt, store, err := c.ShardInfo()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 || cnt != 2 {
		t.Fatalf("ShardInfo = %d/%d, want 1/2", idx, cnt)
	}
	if store == "" {
		t.Fatal("ShardInfo store fingerprint empty")
	}
	if _, err := c.DefineMaterialClass("sample", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineState("received"); err != nil {
		t.Fatal(err)
	}
	var mine, other string
	for i := 0; mine == "" || other == ""; i++ {
		name := fmt.Sprintf("m-%d", i)
		if shard.ShardFor(name, 2) == 1 {
			if mine == "" {
				mine = name
			}
		} else if other == "" {
			other = name
		}
	}
	oid, err := c.CreateMaterial("sample", mine, "received", 1)
	if err != nil {
		t.Fatal(err)
	}
	if shard.ShardOfOID(oid) != 1 {
		t.Fatalf("OID %v not tagged for shard 1", oid)
	}
	if _, err := c.CreateMaterial("sample", other, "received", 2); !errors.Is(err, labbase.ErrCrossShard) {
		t.Fatalf("misrouted create = %v, want ErrCrossShard", err)
	}
}

// TestKillServerMidPipeline is the live-subprocess half of the peer-death
// regression: SIGKILL the server with a deep pipeline of large responses
// in flight; every future must resolve with the descriptive pipeline error
// rather than hang. The response volume (~500 × a 2000-entry history) far
// exceeds any socket buffering, so losing responses is guaranteed, not
// timing-dependent.
func TestKillServerMidPipeline(t *testing.T) {
	dir := t.TempDir()
	addr, cmd := startServerProc(t, dir, "-store", "ostore-mm")
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.DefineMaterialClass("sample", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineState("received"); err != nil {
		t.Fatal(err)
	}
	oid, err := c.CreateMaterial("sample", "m-0", "received", 1)
	if err != nil {
		t.Fatal(err)
	}
	const histLen = 2000
	specs := make([]labbase.StepSpec, histLen)
	for i := range specs {
		specs[i] = labbase.StepSpec{
			Class:     "wash",
			ValidTime: int64(i),
			Materials: []storage.OID{oid},
			Attrs:     []labbase.AttrValue{{Name: "cycles", Value: labbase.Int64(int64(i))}},
		}
	}
	if _, err := c.PutSteps(specs); err != nil {
		t.Fatal(err)
	}

	const inFlight = 500
	p := c.Pipeline()
	futs := make([]*wire.Future[[]labbase.HistoryEntry], inFlight)
	for i := range futs {
		futs[i] = p.History(oid)
	}
	if err := p.Send(); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	killed = true

	c.SetIOTimeout(5 * time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Drain()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Drain hung after server was killed mid-pipeline")
	}
	last := futs[inFlight-1]
	if last.Err == nil {
		t.Fatal("last future resolved cleanly; responses cannot all have survived a SIGKILL")
	}
	if !strings.Contains(last.Err.Error(), "pipeline response") {
		t.Errorf("peer-death error not descriptive: %v", last.Err)
	}
	for i, f := range futs {
		if f.Err == nil && f.Val == nil {
			t.Fatalf("future %d left unresolved", i)
		}
	}
}

// TestRouterStressAgainstLiveServers races a Router's scatter-gather
// reads and fan-out batches against two real server subprocesses. Run
// under -race in CI, this is the end-to-end proof that the router's pool
// checkout, pipelined fan-out, and metrics paths are thread-safe while
// actual TCP peers answer out of lockstep.
func TestRouterStressAgainstLiveServers(t *testing.T) {
	dir := t.TempDir()
	const n = 2
	topo := shard.Topology{Shards: make([]string, n)}
	for k := 0; k < n; k++ {
		addr, cmd := startServerProc(t, dir, "-store", "ostore-mm", "-shard", fmt.Sprintf("%d/%d", k, n))
		defer terminate(t, cmd)
		topo.Shards[k] = addr
	}
	r, err := shard.OpenRouter(topo, shard.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

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
	const mats = 16
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
		writers = 4
		readers = 4
		rounds  = 25
		perB    = 4
	)
	var wg sync.WaitGroup
	errs := make([]error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < rounds; b++ {
				specs := make([]labbase.StepSpec, perB)
				for i := range specs {
					specs[i] = labbase.StepSpec{
						Class:     "wash",
						ValidTime: int64(w*1000000 + b*1000 + i),
						Materials: []storage.OID{oids[(w*13+b*5+i)%mats]},
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
				if _, err := r.CountSteps("wash"); err != nil {
					errs[writers+g] = err
					return
				}
				if _, _, _, err := r.MostRecent(oids[(g*3+b)%mats], "cycles"); err != nil {
					errs[writers+g] = err
					return
				}
				if _, err := r.MaterialsInState("received"); err != nil {
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
	if want := uint64(writers * rounds * perB); total != want {
		t.Fatalf("CountSteps = %d, want %d", total, want)
	}
	st := r.Metrics()
	for k := range st.PerShard {
		if st.PerShard[k].Count() == 0 {
			t.Errorf("shard %d histogram empty after stress", k)
		}
	}
}
