package pagefile

// Pool is the buffer pool of the paged storage managers: the resident
// frames by page and a CLOCK ring over them, held to a capacity. It decides
// which frame a fault takes over; what may be evicted, and what must be
// written first, stay its pager's policy (keep, and the pager's own action
// on the victim). A Pool does no I/O and no locking: its pager calls it
// under its own mutex.
type Pool struct {
	frames   map[PageID]*Frame
	ring     []*Frame // CLOCK ring over the resident frames
	hand     int
	capacity int // 0: unbounded
	// Stats: the pool counts Evictions, its pager Faults and PageWrites.
	Stats PagerStats
}

// NewPool returns an empty pool holding up to capacity frames; 0 means
// unbounded.
func NewPool(capacity int) *Pool {
	return &Pool{frames: make(map[PageID]*Frame), capacity: capacity}
}

// Pin returns page id's frame, pinned once more and referenced, or nil when
// the page is not resident. A hit is one map lookup.
func (p *Pool) Pin(id PageID) *Frame {
	f := p.frames[id]
	if f != nil {
		f.pins++
		f.ref = true
	}
	return f
}

// Hold pins f without referencing it, to keep it resident for a reason of
// the pager's own; Unpin releases the hold.
func (p *Pool) Hold(f *Frame) { f.pins++ }

// Unpin releases one pin of f; dirty records that its image was written.
func (p *Pool) Unpin(f *Frame, dirty bool) {
	f.pins--
	if dirty {
		f.Dirty = true
	}
}

// Victim returns the frame CLOCK evicts next when the pool is full, left
// resident under the hand for Take; nil when the pool has room, or when no
// frame is evictable and the pool must overshoot. Frames that are pinned or
// that keep (nil: none) reports are never victims.
func (p *Pool) Victim(keep func(*Frame) bool) *Frame {
	if p.capacity <= 0 || len(p.frames) < p.capacity {
		return nil
	}
	steps := 0
	return p.sweep(keep, &steps)
}

// Take evicts victim, the frame Victim just returned, and hands it over to
// page id, pinned once and referenced, with the victim's buffer for the
// caller to fill. It rejoins the pool with Add.
func (p *Pool) Take(victim *Frame, id PageID) *Frame {
	p.evict(victim)
	*victim = Frame{ID: id, Data: victim.Data, pins: 1, ref: true}
	return victim
}

// NewFrame returns a frame for page id on buf, pinned once and referenced,
// for a fault with no victim to take over.
func NewFrame(id PageID, buf []byte) *Frame {
	return &Frame{ID: id, Data: buf, pins: 1, ref: true}
}

// Add makes f resident; its page must not be.
func (p *Pool) Add(f *Frame) {
	p.frames[f.ID] = f
	p.ring = append(p.ring, f)
}

// Trim evicts frames, as Victim would, until the pool is back within
// capacity or nothing left is evictable, and gives their buffers to free.
func (p *Pool) Trim(keep func(*Frame) bool, free func([]byte)) {
	for p.capacity > 0 && len(p.frames) > p.capacity {
		evicted := false
		// One step budget for every eviction of a pass.
		for steps := 0; len(p.frames) > p.capacity; steps++ {
			f := p.sweep(keep, &steps)
			if f == nil {
				break
			}
			p.evict(f)
			free(f.Data)
			evicted = true
		}
		if !evicted {
			return
		}
	}
}

// Frames returns the resident frames in ring order, in a slice the caller
// must not modify and Add, Take and Trim invalidate.
func (p *Pool) Frames() []*Frame { return p.ring }

// evict drops f, the frame under the hand, from the pool: the ring's last
// frame takes its place.
func (p *Pool) evict(f *Frame) {
	delete(p.frames, f.ID)
	p.ring[p.hand] = p.ring[len(p.ring)-1]
	p.ring = p.ring[:len(p.ring)-1]
	p.Stats.Evictions++
}

// sweep is CLOCK: it advances the hand to the first frame that is neither
// pinned, kept nor referenced, and returns it under the hand; an evictable
// frame it passes loses its reference bit (second chance). It gives up once
// *steps reaches twice the ring's length, when every evictable frame has
// been met unreferenced; Trim spends one *steps over several evictions.
func (p *Pool) sweep(keep func(*Frame) bool, steps *int) *Frame {
	for ; *steps < 2*len(p.ring); *steps++ {
		p.hand %= len(p.ring)
		f := p.ring[p.hand]
		if f.pins > 0 || keep != nil && keep(f) {
			p.hand++
			continue
		}
		if f.ref {
			f.ref = false
			p.hand++
			continue
		}
		return f
	}
	return nil
}
