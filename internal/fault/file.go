package fault

import (
	"fmt"
	"io"
	"os"
)

// File wraps an *os.File (the ostore redo log) and subjects it to the same
// Injector as the store's page backing, so one crash point cuts across both
// media. It implements the method set ostore's LogFile interface expects.
type File struct {
	f  *os.File
	in *Injector
}

// WrapFile subjects f to the injector's plan.
func WrapFile(f *os.File, in *Injector) *File {
	return &File{f: f, in: in}
}

// ReadAt implements io.ReaderAt. At the crash point a plan with ShortRead
// set returns a bare prefix with io.EOF — the torn-read analog — before the
// medium dies; otherwise the read fails outright.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	switch f.in.step() {
	case actProceed:
		return f.f.ReadAt(p, off)
	case actCrash:
		if f.in.plan.ShortRead {
			if k := f.in.plan.headLen(len(p)); k > 0 {
				n, err := f.f.ReadAt(p[:k], off)
				if err == nil {
					err = io.EOF
				}
				return n, err
			}
		}
		return 0, fmt.Errorf("fault: read log: %w", ErrCrashed)
	default:
		return 0, fmt.Errorf("fault: read log: %w", ErrCrashed)
	}
}

// WriteAt implements io.WriterAt. At the crash point the write is torn per
// the plan: only the surviving ranges land (a lost middle leaves a hole,
// which reads back as zeros — the reordered-sector case).
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	switch f.in.step() {
	case actProceed:
		n, err := f.f.WriteAt(p, off)
		if err == nil {
			f.in.noteWrite()
		}
		return n, err
	case actCrash:
		if size, err := f.Size(); err == nil {
			f.in.noteLogWrite(LogWrite{Off: off, Len: len(p), FileSize: size})
		}
		keep := f.in.plan.tearBuf(len(p))
		for _, r := range keep {
			// Best effort: what the dying transfer managed to commit.
			_, _ = f.f.WriteAt(p[r[0]:r[1]], off+int64(r[0]))
		}
		if len(keep) > 0 {
			f.in.noteTorn(fmt.Sprintf("WriteAt(%d bytes) tear=%s", len(p), f.in.plan.Tear))
		}
		return 0, fmt.Errorf("fault: write log: %w", ErrCrashed)
	default:
		return 0, fmt.Errorf("fault: write log: %w", ErrCrashed)
	}
}

// Truncate implements the log contract. A crashed medium never truncates —
// this is the window recovery exists for.
func (f *File) Truncate(size int64) error {
	switch f.in.step() {
	case actProceed:
		return f.f.Truncate(size)
	default:
		return fmt.Errorf("fault: truncate log: %w", ErrCrashed)
	}
}

// Sync implements the log contract.
func (f *File) Sync() error {
	switch f.in.step() {
	case actProceed:
		return f.f.Sync()
	default:
		return fmt.Errorf("fault: sync log: %w", ErrCrashed)
	}
}

// Size returns the file's current size (uncounted metadata).
func (f *File) Size() (int64, error) {
	info, err := f.f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// Close closes the wrapped file without flushing (see Backing.Close).
func (f *File) Close() error { return f.f.Close() }
