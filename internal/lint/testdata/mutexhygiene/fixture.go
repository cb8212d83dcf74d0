// Package fixture exercises the mutexhygiene analyzer: lock acquisitions
// that can reach a return without an unlock, and RWMutex releases of the
// wrong flavor.
package fixture

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

func returnWhileLocked(c *counter) int {
	c.mu.Lock()
	if c.n > 0 {
		return c.n
	}
	c.mu.Unlock()
	return 0
}

func deferredUnlock(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func deferredClosureUnlock(c *counter) int {
	c.mu.Lock()
	defer func() {
		c.n++
		c.mu.Unlock()
	}()
	return c.n
}

func unlockOnEveryPath(c *counter) int {
	c.mu.Lock()
	if c.n > 0 {
		c.mu.Unlock()
		return c.n
	}
	c.mu.Unlock()
	return 0
}

func readLockHeld(mu *sync.RWMutex, v *int) int {
	mu.RLock()
	return *v
}

func readLockReleased(mu *sync.RWMutex, v *int) int {
	mu.RLock()
	defer mu.RUnlock()
	return *v
}

func conditionalLockPairsAreFine(c *counter, b bool) int {
	if b {
		c.mu.Lock()
	}
	x := c.n
	if b {
		c.mu.Unlock()
	}
	return x
}

func switchPaths(c *counter, k int) int {
	c.mu.Lock()
	switch k {
	case 0:
		c.mu.Unlock()
		return 0
	default:
		return c.n
	}
}

func panicIsTerminal(c *counter) int {
	c.mu.Lock()
	if c.n < 0 {
		panic("negative")
	}
	c.mu.Unlock()
	return 0
}

func suppressed(c *counter) int {
	c.mu.Lock()
	//lint:allow mutexhygiene handed off to caller which unlocks
	return c.n
}

func unlockAfterRLock(mu *sync.RWMutex, v *int) int {
	mu.RLock()
	x := *v
	mu.Unlock()
	return x
}

func runlockAfterLock(mu *sync.RWMutex, v *int) int {
	mu.Lock()
	x := *v
	mu.RUnlock()
	return x
}

func deferredUnlockAfterRLock(mu *sync.RWMutex, v *int) int {
	mu.RLock()
	defer mu.Unlock()
	return *v
}

func matchedRWFlavorsAreFine(mu *sync.RWMutex, v *int) int {
	mu.Lock()
	*v++
	mu.Unlock()
	mu.RLock()
	defer mu.RUnlock()
	return *v
}

func upgradeByTurns(mu *sync.RWMutex, v *int) int {
	// Dropping the read lock before taking the write lock is the correct
	// idiom and must not trip the mismatch rule.
	mu.RLock()
	x := *v
	mu.RUnlock()
	mu.Lock()
	*v = x + 1
	mu.Unlock()
	return x
}

// shardFanOutClean is the sharded write path's fan-out shape: one goroutine
// per shard, each taking only its own shard's lock with a deferred unlock
// inside the closure, joined by a WaitGroup. Every lock/unlock pair lives in
// one closure body, so the analyzer must stay quiet.
func shardFanOutClean(mus []sync.Mutex, counts []int) {
	var wg sync.WaitGroup
	for k := range mus {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			mus[k].Lock()
			defer mus[k].Unlock()
			counts[k]++
		}(k)
	}
	wg.Wait()
}

// shardFanOutLeaky forgets the deferred unlock on the early-return path
// inside the per-shard closure — the bug the fan-out shape makes easy to
// write, and exactly what the held-at-return rule must catch inside
// function literals.
func shardFanOutLeaky(mus []sync.Mutex, counts []int) {
	var wg sync.WaitGroup
	for k := range mus {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			mus[k].Lock()
			if counts[k] < 0 {
				return
			}
			counts[k]++
			mus[k].Unlock()
		}(k)
	}
	wg.Wait()
}

// shardHandoffLock takes each shard's lock before spawning the goroutine
// that releases it — a deliberate handoff. The path rule reports only at a
// return, and this function has none, so the handoff draws nothing and
// needs no allow pragma.
func shardHandoffLock(mus []sync.Mutex, counts []int) {
	var wg sync.WaitGroup
	for k := range mus {
		wg.Add(1)
		mus[k].Lock()
		go func(k int) {
			defer wg.Done()
			defer mus[k].Unlock()
			counts[k]++
		}(k)
	}
	wg.Wait()
}
