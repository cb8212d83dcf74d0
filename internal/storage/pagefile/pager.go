package pagefile

// Mode is the access intent declared when pinning a page.
type Mode int

const (
	// ModeRead declares read-only access.
	ModeRead Mode = iota
	// ModeWrite declares that the frame will be modified.
	ModeWrite
)

// Frame is a pinned, resident page. Data is the live page image; pagers hand
// out the same Frame to every pinner of the page, so Store serializes
// object-level access above this layer. Data may be written only under a
// ModeWrite pin, and a pager may point Data at a fresh copy of the image
// when it grants one (ostore does, to keep a sealed image it still has to
// flush): a pinner reads Data through the Frame, never through a slice it
// kept across another pin of the page. The frame's Pool owns its pins and
// reference bit; the pager owns Dirty and Sealed.
type Frame struct {
	// ID is the page number.
	ID PageID
	// Data is the PageSize-byte page image.
	Data []byte
	// Dirty: Data was written since the pager last wrote it back or sealed it.
	Dirty bool
	// Sealed: Data is an image a flush in flight still has to write (ostore
	// seals without copying), so the next write pin gets a copy.
	Sealed bool

	pins int  // pins and holds; a pinned frame is never evicted
	ref  bool // CLOCK's reference bit
}

// Pager is the durability policy that distinguishes the paged storage
// managers. Both keep their resident pages in a Pool, which makes the
// residency decision (CLOCK); each pager decides what the pool may evict
// and how a commit becomes durable:
//
//   - the ostore pager reads every miss through one serialized, counted
//     path, keeps a page resident while it is dirty or its sealed image is
//     unwritten (no-steal), and makes commits durable through a redo log;
//   - the texas pager makes pages resident on first touch (counting a fault,
//     the analog of pointer swizzling at page-fault time), writes a dirty
//     victim back before taking it over (steal), and writes dirty pages back
//     at commit, with no log and no concurrency control.
//
// PagerStats values are cumulative.
type Pager interface {
	// Pin makes page id resident and returns its frame. The pin must be
	// balanced by Unpin.
	Pin(id PageID, mode Mode) (*Frame, error)
	// Unpin releases the frame; dirty records that the image was modified.
	Unpin(f *Frame, dirty bool)
	// AllocPage creates a fresh zeroed page, already resident and pinned in
	// ModeWrite. Fresh pages do not count as faults.
	AllocPage() (*Frame, error)
	// Begin and Commit bracket a transaction. Commit seals it — fixes the
	// images its durability policy (log + write-back, or write-back only)
	// will make durable — and returns durable, which waits for that policy
	// to finish. A nil durable means Commit did all of it before returning.
	// Store calls Commit without holding its own mutex, so read-mode Pin,
	// Unpin and Stats may arrive while it runs and the pager must order them
	// itself; no AllocPage, write-mode Pin, Begin or Close will, and no
	// second Commit. Once Commit returns, all of those may arrive while
	// durable is still outstanding: the next transaction runs while this
	// one's flush is in flight, so a pager that defers work to durable must
	// flush the sealed images, not the live frames the next transaction is
	// writing, and Close must wait for every outstanding flush.
	Begin() error
	Commit() (durable func() error, err error)
	// Stats returns cumulative counters.
	Stats() PagerStats
	// SizeBytes is the backing-store footprint.
	SizeBytes() uint64
	// Close flushes (for persistent pagers) and releases resources.
	Close() error
}

// PagerStats counts page-level activity.
type PagerStats struct {
	// Faults is the number of pages made resident from the backing store —
	// the portable analog of the paper's majflt column.
	Faults uint64
	// PageWrites is the number of page write-backs to the backing store.
	PageWrites uint64
	// Evictions counts pages dropped from residency to make room.
	Evictions uint64
}
