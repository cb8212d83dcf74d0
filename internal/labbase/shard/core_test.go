package shard

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"labflow/internal/labbase"
	"labflow/internal/storage"
)

// The core's rules, exercised over in-memory fake members: no stores, no
// servers, no subprocesses. The byte-identity tests prove the router over
// real servers keeps them; these prove the rules themselves, including the
// ones that need a failing or unreachable shard to reach.

// fakeMember scripts one shard. Everything it is asked to do is appended
// to the shared log as "<k>:<what>".
type fakeMember struct {
	k   int
	log *[]string

	inTx     bool  // its part of the broadcast bracket is open
	beginErr error // begin refuses with this
	readErr  error // no reader can be had (a down shard)
	batchErr error // batch() refuses with this
	putErr   error // the sub-batch fails with this

	count    uint64          // what every Count* answers
	countErr error           // ... or fails with
	classID  labbase.ClassID // what DefineMaterialClass answers
	wait     chan struct{}   // open blocks until closed
	after    func()          // runs when a read has finished
}

func (m *fakeMember) logf(format string, args ...any) {
	*m.log = append(*m.log, fmt.Sprintf("%d:", m.k)+fmt.Sprintf(format, args...))
}

// fakeReader answers the counts and panics (nil embedded interface) on
// anything a test did not script.
type fakeReader struct {
	labbase.Reader
	m *fakeMember
}

func (r fakeReader) CountSteps(string) (uint64, error) { return r.m.count, r.m.countErr }

// fakeWriter answers the one definition the tests broadcast.
type fakeWriter struct {
	writer
	m *fakeMember
}

func (w fakeWriter) DefineMaterialClass(name, parent string) (labbase.ClassID, error) {
	w.m.logf("define %s", name)
	return w.m.classID, nil
}

func (m *fakeMember) open() (labbase.Reader, error) {
	if m.wait != nil {
		<-m.wait
	}
	if m.readErr != nil {
		m.done(nil, nil)
		return nil, m.readErr
	}
	return fakeReader{m: m}, nil
}

func (m *fakeMember) done(_ labbase.Reader, err error) error {
	if m.after != nil {
		m.after()
	}
	return err
}

func (m *fakeMember) begin() error {
	if m.beginErr != nil {
		return m.beginErr
	}
	if m.inTx {
		return errors.New("fake: nested transaction")
	}
	m.inTx = true
	m.logf("begin")
	return nil
}

func (m *fakeMember) commit() error {
	if !m.inTx {
		return labbase.ErrNoTransaction
	}
	m.inTx = false
	m.logf("commit")
	return nil
}

func (m *fakeMember) mutate(fn func(writer) error) error {
	if !m.inTx {
		return labbase.ErrNoTransaction
	}
	return fn(fakeWriter{m: m})
}

func (m *fakeMember) alone(fn func(writer) error) (error, error) {
	return fn(fakeWriter{m: m}), nil
}

// putSteps mints OIDs that name the shard and the entry's valid time, so a
// test can read the stitching off the result.
func (m *fakeMember) putSteps(specs []labbase.StepSpec) ([]storage.OID, error) {
	m.logf("put %d", len(specs))
	if m.putErr != nil {
		return nil, m.putErr
	}
	oids := make([]storage.OID, len(specs))
	for j, spec := range specs {
		oids[j] = withShard(storage.OID(spec.ValidTime), m.k)
	}
	return oids, nil
}

type fakeFlight struct {
	m     *fakeMember
	specs []labbase.StepSpec
}

func (m *fakeMember) batch() (flight, error) {
	if m.batchErr != nil {
		return nil, m.batchErr
	}
	m.logf("ready")
	return &fakeFlight{m: m}, nil
}

func (f *fakeFlight) start(specs []labbase.StepSpec) { f.specs = specs }
func (f *fakeFlight) wait() ([]storage.OID, error)   { return f.m.putSteps(f.specs) }
func (f *fakeFlight) release()                       { f.m.logf("release") }

func (m *fakeMember) stats() (string, storage.Stats, error) {
	return "fake", storage.Stats{Reads: m.count}, m.readErr
}

// fakeCore builds a core over n fresh fake members, recording no metrics.
// The fakes have no catalog to probe, so the one step shape the tests send
// (stepOn's) is marked as already broadcast.
func fakeCore(n int) (*core, []*fakeMember, *[]string) {
	log := new([]string)
	fakes := make([]*fakeMember, n)
	members := make([]member, n)
	for k := range fakes {
		fakes[k] = &fakeMember{k: k, log: log, classID: 7}
		members[k] = fakes[k]
	}
	c := newCore(members, nil)
	c.known[schemaKey(stepOn(0, 0))] = struct{}{}
	return c, fakes, log
}

// stepOn is a step routed to shard k, tagged t.
func stepOn(k int, t int64) labbase.StepSpec {
	return labbase.StepSpec{Class: "wash", ValidTime: t, Materials: []storage.OID{withShard(storage.OID(1), k)}}
}

// TestCoreBeginUnwindsPartialBracket is the regression test for an old
// Begin that left shards 0..k-1 holding open
// brackets when shard k refused, so every later Begin failed with "shard
// 0: ... nested transaction" until someone thought to call Commit.
func TestCoreBeginUnwindsPartialBracket(t *testing.T) {
	c, fakes, log := fakeCore(3)
	fakes[1].beginErr = errors.New("fake: media offline")

	err := c.Begin()
	if err == nil || err.Error() != "shard 1: fake: media offline" {
		t.Fatalf("Begin = %v, want the refusal naming shard 1", err)
	}
	if c.InTxn() {
		t.Error("InTxn after a refused Begin")
	}
	if want := []string{"0:begin", "0:commit"}; !reflect.DeepEqual(*log, want) {
		t.Errorf("refused Begin did %v, want %v (shard 0 unwound, shard 2 never asked, nothing applied)", *log, want)
	}
	if _, err := c.CreateMaterial("sample", "m", "received", 1); !errors.Is(err, labbase.ErrNoTransaction) {
		t.Errorf("mutation after a refused Begin = %v, want ErrNoTransaction", err)
	}

	fakes[1].beginErr = nil
	if err := c.Begin(); err != nil {
		t.Fatalf("Begin after the refusal cleared: %v", err)
	}
	if !c.InTxn() || !fakes[0].inTx || !fakes[1].inTx || !fakes[2].inTx {
		t.Error("second Begin did not open every shard's bracket")
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCoreGatherErrorRules(t *testing.T) {
	down := func(k int) error { return fmt.Errorf("shard %d (fake:1): %w: dial refused", k, ErrShardDown) }
	boom := errors.New("fake: boom")
	cases := []struct {
		name   string
		shards int
		script func(fakes []*fakeMember)
		want   string // exact error text
		is     error
	}{
		{
			name: "first failing shard in shard order decides, whichever failed first in time", shards: 3,
			script: func(f []*fakeMember) {
				// Shard 1 answers only after shard 2 has already failed.
				f[1].countErr, f[1].wait = boom, make(chan struct{})
				f[2].countErr = errors.New("fake: later shard")
				f[2].after = func() { close(f[1].wait) }
			},
			want: "shard 1: fake: boom", is: boom,
		},
		{
			name: "a store error gets its shard's name", shards: 2,
			script: func(f []*fakeMember) { f[1].countErr = boom },
			want:   "shard 1: fake: boom", is: boom,
		},
		{
			name: "ErrShardDown passes through unwrapped", shards: 2,
			script: func(f []*fakeMember) { f[1].readErr = down(1) },
			want:   down(1).Error(), is: ErrShardDown,
		},
		{
			name: "an earlier store error beats a later down shard", shards: 3,
			script: func(f []*fakeMember) { f[0].countErr, f[2].readErr = boom, down(2) },
			want:   "shard 0: fake: boom", is: boom,
		},
		{
			name: "one shard returns errors verbatim", shards: 1,
			script: func(f []*fakeMember) { f[0].countErr = boom },
			want:   "fake: boom", is: boom,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, fakes, _ := fakeCore(tc.shards)
			for _, f := range fakes {
				f.count = 5
			}
			if n, err := c.CountSteps("wash"); err != nil || n != uint64(5*tc.shards) {
				t.Fatalf("healthy CountSteps = %d, %v", n, err)
			}
			tc.script(fakes)
			_, err := c.CountSteps("wash")
			if err == nil || err.Error() != tc.want || !errors.Is(err, tc.is) {
				t.Errorf("CountSteps error = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestCorePutStepsStitchAndRebase(t *testing.T) {
	// Entries alternate 0,1,1,0,1: shard 0 owns {0,3}, shard 1 owns {1,2,4}.
	batch := []labbase.StepSpec{stepOn(0, 10), stepOn(1, 11), stepOn(1, 12), stepOn(0, 13), stepOn(1, 14)}

	t.Run("OIDs come back in request order", func(t *testing.T) {
		c, _, log := fakeCore(2)
		oids, err := c.PutSteps(batch)
		if err != nil {
			t.Fatal(err)
		}
		want := []storage.OID{withShard(10, 0), withShard(11, 1), withShard(12, 1), withShard(13, 0), withShard(14, 1)}
		if !reflect.DeepEqual(oids, want) {
			t.Errorf("oids = %v, want %v", oids, want)
		}
		if want := []string{"0:ready", "1:ready", "0:put 2", "1:put 3"}; !reflect.DeepEqual(*log, want) {
			t.Errorf("fan-out did %v, want %v (every shard readied before any is started)", *log, want)
		}
	})

	t.Run("a part-local index is re-based and the other shards still apply", func(t *testing.T) {
		c, fakes, log := fakeCore(2)
		kind := errors.New("fake: kind mismatch")
		fakes[1].putErr = &labbase.BatchError{Index: 2, Err: kind} // its third entry: original entry 4
		_, err := c.PutSteps(batch)
		var be *BatchError
		if !errors.As(err, &be) || be.Index != 4 || be.Shard != 1 || !errors.Is(err, kind) {
			t.Fatalf("err = %v, want a BatchError at original entry 4 on shard 1", err)
		}
		if !strings.Contains(err.Error(), "step batch entry 4 (earlier entries on shard 1 recorded, other shards unaffected)") {
			t.Errorf("error bytes: %v", err)
		}
		if want := "0:put 2"; !strings.Contains(strings.Join(*log, ","), want) {
			t.Errorf("shard 0's sub-batch was not applied: %v", *log)
		}
	})

	t.Run("an out-of-range part index and a plain error get the shard's name", func(t *testing.T) {
		c, fakes, _ := fakeCore(2)
		fakes[0].putErr = &labbase.BatchError{Index: 9, Err: errors.New("fake: lying peer")}
		fakes[1].putErr = errors.New("fake: commit failed")
		_, err := c.PutSteps(batch)
		want := "shard 0: labbase: step batch entry 9 (earlier entries recorded): fake: lying peer\nshard 1: fake: commit failed"
		if err == nil || err.Error() != want {
			t.Errorf("err = %v, want %q", err, want)
		}
	})

	t.Run("an unreachable shard rejects the batch before anything is started", func(t *testing.T) {
		c, fakes, log := fakeCore(2)
		fakes[1].batchErr = fmt.Errorf("shard 1 (fake:1): %w", ErrShardDown)
		_, err := c.PutSteps(batch)
		if !errors.Is(err, ErrShardDown) || strings.HasPrefix(err.Error(), "shard 1: shard 1") {
			t.Fatalf("err = %v, want ErrShardDown unwrapped", err)
		}
		if want := []string{"0:ready", "0:release"}; !reflect.DeepEqual(*log, want) {
			t.Errorf("rejected batch did %v, want %v", *log, want)
		}
	})

	t.Run("a cross-shard entry rejects the batch with its index", func(t *testing.T) {
		c, _, log := fakeCore(2)
		bad := stepOn(0, 20)
		bad.Materials = append(bad.Materials, withShard(storage.OID(2), 1))
		_, err := c.PutSteps([]labbase.StepSpec{stepOn(0, 10), bad})
		if !errors.Is(err, ErrCrossShard) || !strings.Contains(err.Error(), "entry 1 (batch rejected, nothing recorded)") {
			t.Fatalf("err = %v", err)
		}
		if len(*log) != 0 {
			t.Errorf("rejected batch reached the shards: %v", *log)
		}
	})

	t.Run("one shard passes the batch and its error through", func(t *testing.T) {
		c, fakes, _ := fakeCore(1)
		fakes[0].putErr = &labbase.BatchError{Index: 1, Err: errors.New("fake: kind mismatch")}
		_, err := c.PutSteps(batch[:2])
		if err != error(fakes[0].putErr) {
			t.Errorf("err = %v, want the store's own BatchError verbatim", err)
		}
	})
}

func TestCoreCatalogDivergence(t *testing.T) {
	c, fakes, log := fakeCore(3)
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if id, err := c.DefineMaterialClass("sample", ""); err != nil || id != 7 {
		t.Fatalf("agreeing shards: id %d, %v", id, err)
	}
	fakes[2].classID = 8
	_, err := c.DefineMaterialClass("clone", "")
	want := `shard: catalog divergence: material class "clone" is 8 on shard 2, 7 on shard 0`
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
	if got := strings.Join(*log, ","); !strings.HasSuffix(got, "0:define clone,1:define clone,2:define clone") {
		t.Errorf("broadcast order: %s", got)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	// Outside the bracket a definition is refused with the store's own
	// sentinel, named for shard 0 where the broadcast starts.
	if _, err := c.DefineMaterialClass("late", ""); !errors.Is(err, labbase.ErrNoTransaction) || !strings.HasPrefix(err.Error(), "shard 0: ") {
		t.Errorf("out-of-bracket define = %v", err)
	}
}

func TestCoreStoreStats(t *testing.T) {
	c, fakes, _ := fakeCore(3)
	for k, f := range fakes {
		f.count = uint64(k + 1)
	}
	if name, st := c.StoreStats(); name != "fake×3" || st.Reads != 6 {
		t.Errorf("StoreStats = %q, %+v; want fake×3 with the shards' counters summed", name, st)
	}
	fakes[1].readErr = ErrShardDown
	if name, st := c.StoreStats(); name != "shard: unreachable" || st != (storage.Stats{}) {
		t.Errorf("StoreStats with a shard down = %q, %+v", name, st)
	}
	one, _, _ := fakeCore(1)
	if name, _ := one.StoreStats(); name != "fake" {
		t.Errorf("1-shard StoreStats name = %q, want the backend's own", name)
	}
}
