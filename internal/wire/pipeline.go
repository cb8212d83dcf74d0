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
	clear(pending) // a resolved request's closure holds its request
	return transportErr
}

// resolveAll fails every pending future with err and clears the queue.
func (p *Pipeline) resolveAll(err error) {
	pending := p.pending
	p.pending = p.pending[:0]
	for _, done := range pending {
		done(nil, err)
	}
	clear(pending)
}

// Future is one pipelined request's reply: Val once the enqueuing
// pipeline is flushed, or Err, the error that stands in for it.
type Future[T any] struct {
	Val T
	Err error
}

// enqueue writes a request of o's into the client's buffered writer and
// queues its future. The future is queued even when the write failed, so
// Send resolves it too.
func enqueue[Q, R any](p *Pipeline, o *op[Q, R], q Q) *Future[R] {
	if p.err == nil {
		p.err = p.c.send(o.code, o.request(p.c, q))
	}
	f := &Future[R]{}
	p.pending = append(p.pending, func(d *rec.Decoder, err error) { f.Val, f.Err = o.reply(q, d, err) })
	return f
}

// MostRecent enqueues an OpMostRecent request (see Client.MostRecent).
func (p *Pipeline) MostRecent(oid storage.OID, attr string) *Future[Recent] {
	return enqueue(p, opMostRecent, attrQ{oid, attr})
}

// State enqueues an OpState request (see Client.State).
func (p *Pipeline) State(oid storage.OID) *Future[string] { return enqueue(p, opState, oid) }

// History enqueues an OpHistory request (see Client.History).
func (p *Pipeline) History(oid storage.OID) *Future[[]labbase.HistoryEntry] {
	return enqueue(p, opHistory, oid)
}

// PutSteps enqueues an OpPutSteps request (see Client.PutSteps). The shard
// router uses one per touched shard so the per-shard sub-batches apply
// concurrently across server processes.
func (p *Pipeline) PutSteps(specs []labbase.StepSpec) *Future[[]storage.OID] {
	return enqueue(p, opPutSteps, specs)
}

// RecordStep enqueues an OpRecordStep request (see Client.RecordStep).
func (p *Pipeline) RecordStep(spec labbase.StepSpec) *Future[storage.OID] {
	return enqueue(p, opRecordStep, spec)
}
