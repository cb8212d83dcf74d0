// Package gate is the scheduling half of fault injection: a Gate parks one
// call of a wrapped medium operation, so a test or a crash schedule can hold
// a flush at a known point. It has no dependencies, so every storage
// package's tests can use it.
package gate

import "sync"

// Gate parks one call of whatever medium operation a caller threads it
// through (a log's WriteAt or Sync, a backing's WritePage) for as long as
// the caller needs. Unarmed, Pass is free.
type Gate struct {
	mu      sync.Mutex
	entered chan struct{}
	release chan struct{}
}

// Arm makes the next Pass park. entered is closed once a caller is parked;
// release lets it go (and, called before any Pass, lets the next one
// through). A gate may be armed again while a caller is parked: the next
// Pass parks in turn.
func (g *Gate) Arm() (entered <-chan struct{}, release func()) {
	e, r := make(chan struct{}), make(chan struct{})
	g.mu.Lock()
	g.entered, g.release = e, r
	g.mu.Unlock()
	return e, func() { close(r) }
}

// Pass is what the wrapped operation calls on its way in.
func (g *Gate) Pass() {
	g.mu.Lock()
	e, r := g.entered, g.release
	g.entered, g.release = nil, nil
	g.mu.Unlock()
	if e == nil {
		return
	}
	close(e)
	<-r
}
