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
// kept across another pin of the page.
type Frame struct {
	// ID is the page number.
	ID PageID
	// Data is the PageSize-byte page image.
	Data []byte
	// Priv is for the owning pager's bookkeeping.
	Priv any
}

// Pager is the residency-and-durability policy that distinguishes the
// storage managers:
//
//   - the ostore pager reads every miss through one serialized, counted
//     path, caches pages in a bounded buffer pool, and makes commits durable
//     through a redo log;
//   - the texas pager makes pages resident on first touch (counting a fault,
//     the analog of pointer swizzling at page-fault time) and writes dirty
//     pages back at commit, with no locking.
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
