package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"labflow/internal/rec"
)

// connState is one connection's protocol state across frames.
type connState struct {
	// bracket marks a primary's connection holding the explicit client
	// transaction bracket (OpBegin..OpCommit), and with it the server
	// writer lock across frames.
	bracket bool
	// durable is the wait of a transaction a write handler sealed under
	// the server writer lock; the primary's handle runs it once the lock
	// is released, before the response goes out.
	durable func() error
	// afterFlush is set by a handler whose response ends the conversation:
	// once that response is flushed the core runs it, on the connection's
	// goroutine, and hangs up.
	afterFlush func()
}

// connCore is the connection machinery both server roles share: the accept
// loop, the connection registry, the Shutdown drain, the frame loop and the
// encoding of error frames. A Server and a StandbyServer are this core plus
// the functions below it calls into.
type connCore struct {
	// handle executes one request and returns the response payload.
	handle func(cs *connState, op uint8, payload []byte) ([]byte, error)
	// hangup, when set, runs as a connection ends.
	hangup func(cs *connState)
	logf   func(format string, args ...any)
	// replyLimit bounds a response frame (MaxFrame; tests lower it).
	replyLimit int

	// connMu guards the listener, the registry and closed. It is held only
	// around registry mutation and the shutdown transition, never across a
	// frame.
	connMu sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// init readies the core embedded in a new server.
func (c *connCore) init(handle func(*connState, uint8, []byte) ([]byte, error)) {
	c.handle = handle
	c.logf = log.Printf
	c.replyLimit = MaxFrame
	c.conns = make(map[net.Conn]struct{})
}

// SetLogf redirects server logging (nil silences it).
func (c *connCore) SetLogf(f func(format string, args ...any)) {
	if f == nil {
		f = func(string, ...any) {}
	}
	c.logf = f
}

// serve accepts connections until the listener is closed or the core shut
// down, and returns once every connection goroutine has exited.
func (c *connCore) serve(ln net.Listener) error {
	c.connMu.Lock()
	c.ln = ln
	closed := c.closed
	c.connMu.Unlock()
	if closed {
		return nil
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			c.wg.Wait()
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		c.connMu.Lock()
		if c.closed {
			c.connMu.Unlock()
			conn.Close()
			c.wg.Wait()
			return nil
		}
		c.conns[conn] = struct{}{}
		c.wg.Add(1)
		c.connMu.Unlock()
		go func() {
			defer c.wg.Done()
			c.serveConn(conn)
		}()
	}
}

// shutdown flips the core closed and starts the drain, without waiting for
// it (a connection goroutine with a response still to flush may call it).
// The drain is deterministic: frames already accepted — read off the socket
// into a connection's buffer, or mid-execution — complete and their
// responses are flushed, while blocked or future reads are cut off by an
// immediate read deadline. No connection is torn down mid-response.
func (c *connCore) shutdown(closeListener bool) {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	if closeListener && c.ln != nil {
		c.ln.Close()
	}
	for conn := range c.conns {
		// Cut off only the read side: the next read that actually touches
		// the socket fails, but responses to in-flight requests still write.
		// Frames already buffered by the connection's reader are served
		// without touching the socket, so a pipelined batch the server has
		// accepted completes before the connection closes.
		conn.SetReadDeadline(time.Now()) //lint:allow wallclock immediate deadline to unblock readers on shutdown, never persisted
	}
}

// serveConn is the frame loop: one request in, one response out, flushed.
// A handler error becomes a structured error frame (see errors.go) and the
// connection carries on; so does a reply too large to frame, which is
// refused before a byte of it is written.
func (c *connCore) serveConn(conn net.Conn) {
	cs := &connState{}
	defer func() {
		if c.hangup != nil {
			c.hangup(cs)
		}
		conn.Close()
		c.connMu.Lock()
		delete(c.conns, conn)
		c.connMu.Unlock()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		op, payload, err := readFrame(r)
		if err != nil {
			// A deadline error only arises from shutdown's read cutoff, so it
			// is a clean drain, not a protocol failure worth logging.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
				c.logf("wire: read: %v", err)
			}
			return
		}
		resp, err := c.handle(cs, op, payload)
		if err == nil && len(resp)+1 > c.replyLimit {
			err = fmt.Errorf("wire: %s reply of %d bytes exceeds the %d-byte frame limit",
				rowOf(op).name, len(resp)+1, c.replyLimit)
		}
		status := statusOK
		if err != nil {
			e := rec.NewEncoder(len(err.Error()) + 8)
			encodeRemoteErr(e, err)
			status, resp = statusErr, e.Bytes()
		}
		if writeFrame(w, status, resp) != nil || w.Flush() != nil {
			return
		}
		if cs.afterFlush != nil {
			cs.afterFlush()
			return
		}
	}
}
