package shard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"labflow/internal/wire"
)

// ErrShardDown marks a shard server the router cannot reach. Operations
// that would touch the shard fail fast with an error naming it (and
// wrapping this sentinel) instead of re-dialing — and timing out — on
// every call; the router's health monitor keeps probing the address and
// lifts the mark when the server answers the handshake again.
var ErrShardDown = errors.New("shard: shard server down")

// pool is one shard's client-connection pool. Connections are checked out
// for exactly one synchronous operation (a Client is single-goroutine), so
// concurrent router calls against the same shard each get their own
// connection; idle ones are reused LIFO.
type pool struct {
	shard   int
	addr    string
	timeout time.Duration // dial bound and per-operation I/O deadline

	// mu guards addr, idle, down and closed. Leaf-like in the router
	// hierarchy: nothing is acquired while it is held (dials happen
	// outside it).
	mu   sync.Mutex
	idle []*conn
	down error // non-nil while the shard is marked down (wraps ErrShardDown)
	// closed marks the pool shut for good (router Close). A checkout after
	// close fails, and a connection returned by an operation that was
	// still in flight when Close ran is closed instead of parked — without
	// the flag such a connection would sit in idle forever, leaked.
	closed bool
}

func newPool(shard int, addr string, timeout time.Duration) *pool {
	return &pool{shard: shard, addr: addr, timeout: timeout}
}

// get checks out a connection: an idle one if available, a fresh dial
// otherwise. While the shard is marked down it fails fast with the stored
// ErrShardDown error; only the health monitor (or a successful seed)
// clears the mark.
func (p *pool) get() (*conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("shard %d: %w: router closed", p.shard, ErrShardDown)
	}
	if p.down != nil {
		err := p.down
		p.mu.Unlock()
		return nil, err
	}
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	addr := p.addr
	p.mu.Unlock()
	c, err := wire.DialTimeout(addr, p.timeout)
	if err != nil {
		p.markDown(err)
		return nil, fmt.Errorf("shard %d (%s): %w: %w", p.shard, addr, ErrShardDown, err)
	}
	return &conn{Client: c}, nil
}

// finish takes back a connection after an operation that ended in err: a
// healthy one (no error, or a remote error — the stream stayed in sync) is
// parked, any other is closed, its stream state unknown. A transport error
// does not mark the shard down: the next checkout dials fresh, and only a
// failed dial or health probe declares it down.
func (p *pool) finish(c *conn, err error) {
	if err == nil || errors.Is(err, wire.ErrRemote) {
		p.put(c)
		return
	}
	c.Close()
}

// put returns a healthy connection to the idle list. If the shard was
// marked down — or the pool closed — in the meantime, the connection must
// not be parked: a down shard makes it stale evidence, and a closed pool
// would never close it again.
func (p *pool) put(c *conn) {
	p.mu.Lock()
	if p.down != nil || p.closed {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// markDown records the shard as unreachable and drops every idle
// connection (they share the dead peer).
func (p *pool) markDown(cause error) {
	p.mu.Lock()
	if p.down == nil {
		p.down = fmt.Errorf("shard %d (%s): %w: %w", p.shard, p.addr, ErrShardDown, cause)
	}
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// seed installs a verified connection and clears any down mark (used by
// the opening handshake and the health monitor's successful probes). A
// probe racing router Close may land here after the pool shut — the
// connection is closed, not parked.
func (p *pool) seed(c *conn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.down = nil
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// isDown reports whether the shard is currently marked down.
func (p *pool) isDown() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down != nil
}

// address returns the pool's current target (it changes on failover).
func (p *pool) address() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr
}

// retarget points the pool at a promoted standby's address. The shard
// stays marked down — with the new address in the mark — until a health
// probe verifies the new primary's handshake; idle connections to the old
// primary are dropped.
func (p *pool) retarget(addr string, cause error) {
	p.mu.Lock()
	p.addr = addr
	p.down = fmt.Errorf("shard %d (%s): %w: awaiting promoted standby: %w", p.shard, addr, ErrShardDown, cause)
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// closeAll shuts the pool for good: every idle connection is closed, later
// checkouts fail, and in-flight returns are closed on arrival (router
// shutdown).
func (p *pool) closeAll() {
	p.mu.Lock()
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}
