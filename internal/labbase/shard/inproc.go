package shard

import (
	"fmt"
	"net"
	"sync"
	"time"

	"labflow/internal/wire"
)

// cluster is what a router built by Open owns besides its connections: one
// member and the wire.Server in front of it per shard, each server
// listening on a pipeListener of its own.
type cluster struct {
	lns     []*pipeListener
	servers []*wire.Server
	members []*Member
	serving sync.WaitGroup // one per server's Serve loop
}

// serve puts m behind a server on a fresh in-memory listener and returns
// the listener's address.
func (c *cluster) serve(m *Member) string {
	ln := &pipeListener{
		addr:  pipeAddr(fmt.Sprintf("pipe:%d", len(c.lns))),
		conns: make(chan net.Conn),
		done:  make(chan struct{}),
	}
	srv := wire.NewServer(m)
	srv.SetLogf(nil)
	c.lns = append(c.lns, ln)
	c.servers = append(c.servers, srv)
	c.members = append(c.members, m)
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		srv.Serve(ln)
	}()
	return string(ln.addr)
}

// dial is the router's dial function over the cluster's listeners. The
// timeout does what it does over TCP: it becomes the connection's
// per-operation I/O deadline.
func (c *cluster) dial(addr string, timeout time.Duration) (*wire.Client, error) {
	for _, ln := range c.lns {
		if string(ln.addr) == addr {
			conn, err := ln.connect()
			if err != nil {
				return nil, fmt.Errorf("wire: dial: %w", err)
			}
			cl, err := wire.NewClient(conn)
			if err != nil {
				return nil, err
			}
			cl.SetIOTimeout(timeout)
			return cl, nil
		}
	}
	return nil, fmt.Errorf("wire: dial: no in-memory listener at %s", addr)
}

// close stops every server, waits for its connections to drain, then
// closes every member and reports each member's Close error by shard. A nil
// cluster (a router from OpenRouter) owns nothing.
func (c *cluster) close() []error {
	if c == nil {
		return nil
	}
	for k, srv := range c.servers {
		c.lns[k].Close()
		srv.Shutdown()
	}
	c.serving.Wait()
	errs := make([]error, len(c.members))
	for k, m := range c.members {
		errs[k] = m.Close()
	}
	return errs
}

// pipeListener is a net.Listener whose connections are net.Pipe pairs:
// connect hands the server end to Accept and returns the client end.
//
// net.Pipe has no buffer: a write returns only once the peer has read all
// of it. A wire server reads ahead of the request it is serving only as far
// as its 4 KiB read buffer, and its reply write returns only once the
// client reads it. So a client that sends a second request before reading
// the first reply deadlocks as soon as its frames outgrow that buffer:
// client and server each block writing to the other. The router keeps the
// rule that avoids this — one request frame unanswered per connection: its
// synchronous calls are one round trip each, and a PutSteps fan-out sends
// exactly one frame per flight before it reads any reply.
type pipeListener struct {
	addr  pipeAddr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

// connect opens a connection to the listener; it fails once the listener
// is closed.
func (l *pipeListener) connect() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case conn := <-l.conns:
		return conn, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return l.addr }

// pipeAddr names an in-memory listener.
type pipeAddr string

func (a pipeAddr) Network() string { return "pipe" }
func (a pipeAddr) String() string  { return string(a) }
