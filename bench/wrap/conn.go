package wrap

import (
	"net"
	"sync/atomic"
)

// ConnCounters totals the traffic of every connection a counting listener
// accepted: calls and bytes in each direction, as the server's side of the
// socket sees them.
type ConnCounters struct {
	Reads, Writes         atomic.Int64
	ReadBytes, WriteBytes atomic.Int64
}

// ConnTotals is a point-in-time copy of ConnCounters.
type ConnTotals struct {
	Reads, Writes, ReadBytes, WriteBytes int64
}

// Load copies the counters.
func (c *ConnCounters) Load() ConnTotals {
	return ConnTotals{c.Reads.Load(), c.Writes.Load(), c.ReadBytes.Load(), c.WriteBytes.Load()}
}

// Sub returns t - prev.
func (t ConnTotals) Sub(prev ConnTotals) ConnTotals {
	return ConnTotals{t.Reads - prev.Reads, t.Writes - prev.Writes, t.ReadBytes - prev.ReadBytes, t.WriteBytes - prev.WriteBytes}
}

// Listener decorates ln so every accepted connection counts into c.
func Listener(ln net.Listener, c *ConnCounters) net.Listener {
	return &listener{Listener: ln, c: c}
}

type listener struct {
	net.Listener
	c *ConnCounters
}

func (l *listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

// countingConn forwards everything (deadlines included, which the server's
// shutdown drain relies on) and counts Read and Write.
type countingConn struct {
	net.Conn
	c *ConnCounters
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.Reads.Add(1)
	c.c.ReadBytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.Writes.Add(1)
	c.c.WriteBytes.Add(int64(n))
	return n, err
}
