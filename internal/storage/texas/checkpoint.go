package texas

import (
	"fmt"
	"sort"

	"labflow/internal/storage/pagefile"
	"labflow/internal/storage/repl"
)

// This file is the texas side of the DESIGN §8 checkpoint/replication
// machinery: periodic whole-store page-image snapshots into two alternating
// slots (the manager has no redo log, so its only restore unit is the whole
// backing at a commit boundary), restore-from-snapshot for torn stores, and
// per-commit record shipping to a warm standby.

// resolveSlots decides the snapshot configuration: supplied slots win,
// otherwise CheckpointEvery > 0 opens Path+".ckpt0"/".ckpt1". Returns the
// slots and the effective interval (0 when snapshots are disabled).
func resolveSlots(opts Options) ([2]repl.LogFile, int, error) {
	slots := opts.Snapshots
	every := opts.CheckpointEvery
	supplied := slots[0] != nil || slots[1] != nil
	if !supplied && every > 0 && opts.Path != "" {
		for i := range slots {
			lf, err := repl.OpenFile(fmt.Sprintf("%s.ckpt%d", opts.Path, i))
			if err != nil {
				if slots[0] != nil {
					slots[0].Close()
				}
				return [2]repl.LogFile{}, 0, fmt.Errorf("texas: snapshot slot: %w", err)
			}
			slots[i] = lf
		}
	}
	if (slots[0] != nil || slots[1] != nil) && every <= 0 {
		every = DefaultCheckpointEvery
	}
	return slots, every, nil
}

// restore rewrites the backing from a snapshot's page images, growing it as
// needed, and syncs. Pages beyond the snapshot's extent are left in place:
// the restored superblock does not reference them. The snapshot's page-0
// image carries no dirty marker, so the write clears the torn brand.
func restore(b pagefile.Backing, pages [][]byte) error {
	for i, pg := range pages {
		for b.NumPages() <= uint32(i) {
			if _, err := b.Grow(); err != nil {
				return err
			}
		}
		if err := b.WritePage(pagefile.PageID(i), pg); err != nil {
			return err
		}
	}
	return b.Sync()
}

func (p *pager) snapshotsOn() bool {
	return p.slots[0] != nil || p.slots[1] != nil
}

// commitReplLocked runs after a successful flush: assign the commit its LSN,
// ship the captured page images (an empty record for a read-only commit, so
// the standby's LSN tracks the primary's commit count exactly), and write a
// snapshot every snapEvery commits. A Ship or snapshot error fails the
// commit — its pages are already in the backing, so the caller must treat
// the store like one that crashed inside Commit. A failed ship does not
// stall the stream: the record's bytes are queued under their burned LSN
// and redelivered (or retired, if the follower turns out to have applied
// them with only the ack lost) ahead of the next commit's record.
func (p *pager) commitReplLocked() error {
	if p.shipper == nil && !p.snapshotsOn() {
		return nil
	}
	if p.shipper != nil {
		if err := p.pending.Resolve(p.shipper); err != nil {
			return fmt.Errorf("texas: %w", err)
		}
		lsn := p.nextLSN
		ids := make([]pagefile.PageID, 0, len(p.ship))
		for id := range p.ship {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		pages := make([]repl.PageImage, len(ids))
		for i, id := range ids {
			pages[i] = repl.PageImage{ID: id, Data: p.ship[id]}
		}
		buf := repl.EncodeRecord(lsn, pages)
		// The record owns the delta now (EncodeRecord copied the images),
		// whether or not the shipment below succeeds.
		clear(p.ship)
		if err := p.shipper.Ship(lsn, buf); err != nil {
			p.pending.Add(lsn, buf)
			p.nextLSN++
			return fmt.Errorf("texas: ship record %d: %w", lsn, err)
		}
	}
	p.nextLSN++
	if p.snapshotsOn() {
		p.sinceSnap++
		every := p.snapEvery
		if every < 1 {
			every = 1
		}
		if p.sinceSnap >= every {
			if err := p.snapshotLocked(); err != nil {
				return fmt.Errorf("texas: snapshot: %w", err)
			}
		}
	}
	return nil
}

// snapshotLocked serializes every backing page into the next alternating
// slot under the current commit boundary (LSN nextLSN-1). The page-0 copy
// has its dirty-marker bytes zeroed: a restore from this image yields a
// cleanly-closed store. WriteSnapshot syncs the slot, so once it returns the
// snapshot is a durable restore point; the torn older slot rule (two slots,
// highest valid sequence wins) means a crash mid-write costs nothing.
func (p *pager) snapshotLocked() error {
	n := p.backing.NumPages()
	pages := make([][]byte, n)
	for i := uint32(0); i < n; i++ {
		buf := make([]byte, pagefile.PageSize)
		if err := p.backing.ReadPage(pagefile.PageID(i), buf); err != nil {
			return fmt.Errorf("read page %d: %w", i, err)
		}
		if i == 0 {
			for j := 0; j < 8; j++ {
				buf[dirtyMarkerOff+j] = 0
			}
		}
		pages[i] = buf
	}
	slot := p.slots[p.seqNext%2]
	if slot == nil {
		slot = p.slots[(p.seqNext+1)%2]
	}
	if err := repl.WriteSnapshot(slot, p.seqNext, p.nextLSN-1, pages); err != nil {
		return err
	}
	p.seqNext++
	p.sinceSnap = 0
	return nil
}
