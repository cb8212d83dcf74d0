package wire

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"labflow/internal/fault/gate"
	"labflow/internal/labbase"
	"labflow/internal/storage"
	"labflow/internal/storage/ostore"
	"labflow/internal/storage/repl"
)

// gatedSyncLog parks the redo log's Sync in a gate.
type gatedSyncLog struct {
	repl.LogFile
	gate *gate.Gate
}

func (l gatedSyncLog) Sync() error {
	l.gate.Pass()
	return l.LogFile.Sync()
}

// startDurableServer serves a LabBase over an fsyncing ostore whose log
// Sync passes through the returned gate, with one material per name.
func startDurableServer(t *testing.T, names ...string) (addr string, g *gate.Gate, mats []storage.OID) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "durable.db")
	lf, err := repl.OpenFile(path + ".log")
	if err != nil {
		t.Fatal(err)
	}
	g = &gate.Gate{}
	sm, err := ostore.Open(ostore.Options{Path: path, Log: gatedSyncLog{lf, g}, SyncLog: true})
	if err != nil {
		t.Fatal(err)
	}
	db, err := labbase.Open(sm, labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	srv.SetLogf(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ln.Close()
		srv.Shutdown()
		<-done
		db.Close()
	})
	c := dialT(t, ln.Addr().String())
	if _, err := c.DefineMaterialClass("sample", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineState("received"); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		m, err := c.CreateMaterial("sample", name, "received", 1)
		if err != nil {
			t.Fatal(err)
		}
		mats = append(mats, m)
	}
	return ln.Addr().String(), g, mats
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestWriterLockReleasedBeforeDurableWait: a write holds the server's
// writer lock through its transaction's seal only, and its reply still
// waits for durability. With connection A's commit parked in the log's
// fsync, connection B's write gets past the writer lock — a read sees its
// step — but B's reply is not delivered before A's flush is released; then
// both succeed. Once with one-shot PutSteps, once with explicit
// OpBegin/OpCommit brackets.
func TestWriterLockReleasedBeforeDurableWait(t *testing.T) {
	for _, bracket := range []bool{false, true} {
		name := "PutSteps"
		if bracket {
			name = "bracket"
		}
		t.Run(name, func(t *testing.T) {
			addr, g, mats := startDurableServer(t, "m-a", "m-b")
			reader, a, b := dialT(t, addr), dialT(t, addr), dialT(t, addr)
			write := func(c *Client, m storage.OID) error {
				spec := labbase.StepSpec{
					Class: "measure", ValidTime: 2, Materials: []storage.OID{m},
					Attrs: []labbase.AttrValue{{Name: "reading", Value: labbase.Int64(7)}},
				}
				if !bracket {
					_, err := c.PutSteps([]labbase.StepSpec{spec})
					return err
				}
				if err := c.Begin(); err != nil {
					return err
				}
				if _, err := c.RecordStep(spec); err != nil {
					return err
				}
				return c.Commit()
			}
			// A first write defines the step class, so the two below only
			// record steps; the count is 1 from here.
			if err := write(reader, mats[0]); err != nil {
				t.Fatal(err)
			}

			entered, release := g.Arm()
			released := false
			defer func() {
				if !released { // a failed check must not leave A parked under Shutdown
					release()
				}
			}()
			doneA, doneB := make(chan error, 1), make(chan error, 1)
			go func() { doneA <- write(a, mats[0]) }()
			select {
			case <-entered:
			case err := <-doneA:
				t.Fatalf("A's write returned (%v) without reaching the gated fsync", err)
			case <-time.After(10 * time.Second):
				t.Fatal("A's write never reached the gated fsync")
			}
			go func() { doneB <- write(b, mats[1]) }()
			deadline := time.After(10 * time.Second)
			for {
				n, err := reader.CountSteps("measure")
				if err != nil {
					t.Fatal(err)
				}
				if n == 3 {
					break // A's step and B's: B got past the writer lock
				}
				select {
				case <-deadline:
					t.Fatalf("CountSteps = %d with A's commit parked: B never got past the writer lock", n)
				case <-time.After(time.Millisecond):
				}
			}
			select {
			case err := <-doneB:
				t.Fatalf("B's reply (%v) was delivered while A's flush was still parked", err)
			case err := <-doneA:
				t.Fatalf("A's reply (%v) was delivered while its flush was still parked", err)
			case <-time.After(30 * time.Millisecond):
			}
			release()
			released = true
			for who, done := range map[string]chan error{"A": doneA, "B": doneB} {
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("%s's write: %v", who, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%s's write still blocked after the flush was released", who)
				}
			}
		})
	}
}
