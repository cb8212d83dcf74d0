package pagefile

import (
	"slices"
	"testing"
)

// TestPoolClock drives the pool's CLOCK sweep from a known ring and hand:
// either one fault (Victim, then Take or NewFrame, then Add of page 99) or
// one Trim. The frames' dirty bits stand for a pager's policy: keep holds
// every dirty frame resident, as ostore's no-steal pool does.
func TestPoolClock(t *testing.T) {
	type frame struct {
		id    PageID
		pins  int
		ref   bool
		dirty bool
	}
	cases := []struct {
		name     string
		capacity int
		ring     []frame
		trim     bool
		evicted  []PageID
		wantRing []PageID
		wantRef  []bool // by wantRing position
		wantHand int
	}{
		{
			name:     "room: no victim",
			capacity: 3,
			ring:     []frame{{id: 1}, {id: 2}},
			wantRing: []PageID{1, 2, 99},
			wantRef:  []bool{false, false, true},
		},
		{
			name:     "second chance clears ref",
			capacity: 3,
			ring:     []frame{{id: 1, ref: true}, {id: 2, ref: true}, {id: 3, ref: true}},
			evicted:  []PageID{1},
			wantRing: []PageID{3, 2, 99},
			wantRef:  []bool{false, false, true},
		},
		{
			name:     "pinned and kept frames keep ref",
			capacity: 3,
			ring:     []frame{{id: 1, pins: 1, ref: true}, {id: 2, dirty: true, ref: true}, {id: 3, ref: true}},
			evicted:  []PageID{3},
			wantRing: []PageID{1, 2, 99},
			wantRef:  []bool{true, true, true},
			wantHand: 2,
		},
		{
			name:     "swap-remove: last frame takes the victim's place",
			capacity: 4,
			ring:     []frame{{id: 1, pins: 1}, {id: 2}, {id: 3}, {id: 4}},
			evicted:  []PageID{2},
			wantRing: []PageID{1, 4, 3, 99},
			wantRef:  []bool{false, false, false, true},
			wantHand: 1,
		},
		{
			name:     "nothing evictable: the pool overshoots",
			capacity: 2,
			ring:     []frame{{id: 1, pins: 1}, {id: 2, dirty: true}},
			wantRing: []PageID{1, 2, 99},
			wantRef:  []bool{false, false, true},
			wantHand: 2,
		},
		{
			name:     "trim stops at capacity",
			capacity: 2,
			ring:     []frame{{id: 1}, {id: 2}, {id: 3}, {id: 4}},
			trim:     true,
			evicted:  []PageID{1, 4},
			wantRing: []PageID{3, 2},
			wantRef:  []bool{false, false},
		},
		{
			// Evicting 1 costs a step of the pass's budget of 2*len(ring);
			// the pass spends the rest on the kept frames, and a second
			// pass of four steps gives up. A fresh budget per eviction
			// would leave the hand one step on.
			name:     "trim spends one budget across a pass",
			capacity: 1,
			ring:     []frame{{id: 1}, {id: 2, dirty: true}, {id: 3, dirty: true}},
			trim:     true,
			evicted:  []PageID{1},
			wantRing: []PageID{3, 2},
			wantRef:  []bool{false, false},
			wantHand: 1,
		},
	}
	keep := func(f *Frame) bool { return f.Dirty }
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewPool(c.capacity)
			for _, s := range c.ring {
				p.Add(&Frame{ID: s.id, Data: []byte{byte(s.id)}, pins: s.pins, ref: s.ref, Dirty: s.dirty})
			}
			var freed []PageID // the evicted frames' buffers, by the page each held
			if c.trim {
				p.Trim(keep, func(buf []byte) { freed = append(freed, PageID(buf[0])) })
			} else {
				v := p.Victim(keep)
				var f *Frame
				if v == nil {
					f = NewFrame(99, []byte{99})
				} else {
					freed = append(freed, v.ID)
					f = p.Take(v, 99)
					if f != v || f.pins != 1 || !f.ref || f.Dirty || f.Data[0] != byte(freed[0]) {
						t.Errorf("Take: %+v, want the victim's frame, pinned once, referenced, clean, on its buffer", f)
					}
				}
				p.Add(f)
			}

			var ring []PageID
			var ref []bool
			for _, f := range p.Frames() {
				ring = append(ring, f.ID)
				ref = append(ref, f.ref)
				if p.frames[f.ID] != f {
					t.Errorf("page %d is in the ring but not mapped to its frame", f.ID)
				}
			}
			if len(p.frames) != len(p.ring) {
				t.Errorf("%d pages mapped, %d in the ring", len(p.frames), len(p.ring))
			}
			if !slices.Equal(ring, c.wantRing) || !slices.Equal(ref, c.wantRef) {
				t.Errorf("ring %v refs %v, want %v refs %v", ring, ref, c.wantRing, c.wantRef)
			}
			if p.hand != c.wantHand {
				t.Errorf("hand = %d, want %d", p.hand, c.wantHand)
			}
			if !slices.Equal(freed, c.evicted) {
				t.Errorf("evicted %v, want %v", freed, c.evicted)
			}
			if p.Stats.Evictions != uint64(len(c.evicted)) {
				t.Errorf("Evictions = %d, want %d", p.Stats.Evictions, len(c.evicted))
			}
		})
	}
}
