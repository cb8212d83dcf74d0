package wire

import (
	"errors"
	"fmt"

	"labflow/internal/labbase"
	"labflow/internal/rec"
	"labflow/internal/storage"
)

// Pipeline batches requests on a client connection: each enqueue method
// writes a frame into the client's buffered writer and returns a future
// immediately; Flush sends everything and reads the responses back in order.
// With N requests in flight per flush, the per-request cost of the network
// turnaround drops by ~N, which is the main lever on a 1-Gb LAN (and, in the
// benchmark harness, on loopback) where the server is not CPU-bound.
//
// A Pipeline borrows the client's connection: between the first enqueue and
// the Flush that drains it, no direct Client calls may be made, and futures
// hold their zero values until Flush returns. A Pipeline is reusable after
// Flush and is not safe for concurrent use (same contract as Client).
type Pipeline struct {
	c       *Client
	pending []func(d *rec.Decoder, remoteErr error)
	err     error // first enqueue error, reported by Flush
}

// Pipeline returns a request pipeline over the client's connection.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Len reports the number of requests enqueued and not yet flushed.
func (p *Pipeline) Len() int { return len(p.pending) }

func (p *Pipeline) push(op uint8, payload []byte, done func(*rec.Decoder, error)) {
	if p.err == nil {
		p.err = p.c.send(op, payload)
	}
	// Queued even when the send failed, so Send resolves this future too.
	p.pending = append(p.pending, done)
}

// Flush sends all enqueued frames and reads one response per request, in
// order, resolving each future. It returns the first transport error; remote
// (per-request) errors land in the individual futures instead. On a
// transport error — the peer closing mid-pipeline included — the connection
// is in an unknown state and every unresolved future completes with a
// descriptive error naming the lost response, so no future is ever left
// holding its zero value after Flush returns.
func (p *Pipeline) Flush() error {
	if err := p.Send(); err != nil {
		return err
	}
	return p.Drain()
}

// Send flushes every enqueued frame to the socket without reading any
// responses, so a caller fanning out over several shard connections can put
// all shards to work before draining any of them. On error the pending
// futures are resolved with it. Send-with-nothing-pending is a no-op.
func (p *Pipeline) Send() error {
	err := p.err
	p.err = nil
	if err == nil {
		err = p.c.flush()
	}
	if err != nil {
		p.resolveAll(err)
	}
	return err
}

// Drain reads one response per pending request, in order, resolving each
// future (see Flush). The caller must have Sent (or enqueued nothing).
func (p *Pipeline) Drain() error {
	pending := p.pending
	p.pending = p.pending[:0]
	var transportErr error
	for i, done := range pending {
		if transportErr != nil {
			done(nil, transportErr)
			continue
		}
		d, err := p.c.recv()
		if err != nil && !errors.Is(err, ErrRemote) {
			transportErr = fmt.Errorf("wire: pipeline response %d of %d lost (peer closed or I/O failed mid-pipeline): %w",
				i, len(pending), err)
			err = transportErr
		}
		done(d, err)
	}
	return transportErr
}

// resolveAll fails every pending future with err and clears the queue.
func (p *Pipeline) resolveAll(err error) {
	pending := p.pending
	p.pending = p.pending[:0]
	for _, done := range pending {
		done(nil, err)
	}
}

// MostRecentFuture resolves when the enqueuing pipeline is flushed.
type MostRecentFuture struct {
	Value labbase.Value
	Src   storage.OID
	Found bool
	Err   error
}

// MostRecent enqueues an OpMostRecent request (see Client.MostRecent).
func (p *Pipeline) MostRecent(oid storage.OID, attr string) *MostRecentFuture {
	f := &MostRecentFuture{}
	p.push(OpMostRecent, attrReq(oid, attr), func(d *rec.Decoder, err error) {
		if err == nil {
			f.Value, f.Src, f.Found, err = decodeValueReply(d)
		}
		f.Err = err
	})
	return f
}

// StateFuture resolves when the enqueuing pipeline is flushed.
type StateFuture struct {
	State string
	Err   error
}

// State enqueues an OpState request (see Client.State).
func (p *Pipeline) State(oid storage.OID) *StateFuture {
	f := &StateFuture{}
	p.push(OpState, oidReq(oid), func(d *rec.Decoder, err error) {
		if err == nil {
			f.State, err = decodeString(d)
		}
		f.Err = err
	})
	return f
}

// HistoryFuture resolves when the enqueuing pipeline is flushed.
type HistoryFuture struct {
	Entries []labbase.HistoryEntry
	Err     error
}

// History enqueues an OpHistory request (see Client.History).
func (p *Pipeline) History(oid storage.OID) *HistoryFuture {
	f := &HistoryFuture{}
	p.push(OpHistory, oidReq(oid), func(d *rec.Decoder, err error) {
		if err == nil {
			f.Entries, err = decodeHistory(d)
		}
		f.Err = err
	})
	return f
}

// PutStepsFuture resolves when the enqueuing pipeline is flushed.
type PutStepsFuture struct {
	OIDs []storage.OID
	Err  error
}

// PutSteps enqueues an OpPutSteps request (see Client.PutSteps). The shard
// router uses one per touched shard so the per-shard sub-batches apply
// concurrently across server processes.
func (p *Pipeline) PutSteps(specs []labbase.StepSpec) *PutStepsFuture {
	f := &PutStepsFuture{}
	n := len(specs) // the future must not keep the batch alive
	p.push(OpPutSteps, encodeStepBatch(specs), func(d *rec.Decoder, err error) {
		if err == nil {
			f.OIDs, err = decodeStepBatchReply(d, n)
		}
		f.Err = err
	})
	return f
}

// RecordStepFuture resolves when the enqueuing pipeline is flushed.
type RecordStepFuture struct {
	OID storage.OID
	Err error
}

// RecordStep enqueues an OpRecordStep request (see Client.RecordStep).
func (p *Pipeline) RecordStep(spec labbase.StepSpec) *RecordStepFuture {
	f := &RecordStepFuture{}
	p.push(OpRecordStep, stepReq(spec), func(d *rec.Decoder, err error) {
		if err == nil {
			var oid uint64
			oid, err = decodeUint(d)
			f.OID = storage.OID(oid)
		}
		f.Err = err
	})
	return f
}
