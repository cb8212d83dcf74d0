package wrap

import (
	"os"

	"labflow/internal/storage/ostore"
	"labflow/internal/storage/pagefile"
)

// Backing decorates a page backing with one LayerDevice span per I/O call;
// page transfers carry their byte count.
func Backing(inner pagefile.Backing, rec *Recorder) pagefile.Backing {
	return &backing{inner: inner, rec: rec}
}

type backing struct {
	inner pagefile.Backing
	rec   *Recorder
}

func (b *backing) NumPages() uint32  { return b.inner.NumPages() }
func (b *backing) SizeBytes() uint64 { return b.inner.SizeBytes() }
func (b *backing) Close() error      { return b.inner.Close() }

func (b *backing) ReadPage(id pagefile.PageID, buf []byte) error {
	defer b.rec.EndArg(LayerDevice, OpReadPage, b.rec.Start(), len(buf))
	return b.inner.ReadPage(id, buf)
}

func (b *backing) WritePage(id pagefile.PageID, buf []byte) error {
	defer b.rec.EndArg(LayerDevice, OpWritePage, b.rec.Start(), len(buf))
	return b.inner.WritePage(id, buf)
}

func (b *backing) Grow() (pagefile.PageID, error) {
	defer b.rec.End(LayerDevice, OpGrow, b.rec.Start())
	return b.inner.Grow()
}

func (b *backing) Sync() error {
	defer b.rec.End(LayerDevice, OpSync, b.rec.Start())
	return b.inner.Sync()
}

// OpenLog opens path as a redo-log medium, the way ostore.Open does when it
// is handed a path: the traced run needs the file itself so it can decorate
// it before passing it through ostore.Options.Log.
func OpenLog(path string) (ostore.LogFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return osLog{f}, nil
}

type osLog struct{ *os.File }

func (l osLog) Size() (int64, error) {
	info, err := l.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// LogFile decorates a redo-log medium with one LayerDevice span per I/O
// call; transfers carry their byte count.
func LogFile(inner ostore.LogFile, rec *Recorder) ostore.LogFile {
	return &logFile{inner: inner, rec: rec}
}

type logFile struct {
	inner ostore.LogFile
	rec   *Recorder
}

func (l *logFile) Size() (int64, error) { return l.inner.Size() }
func (l *logFile) Close() error         { return l.inner.Close() }

func (l *logFile) ReadAt(p []byte, off int64) (int, error) {
	defer l.rec.EndArg(LayerDevice, OpLogReadAt, l.rec.Start(), len(p))
	return l.inner.ReadAt(p, off)
}

func (l *logFile) WriteAt(p []byte, off int64) (int, error) {
	defer l.rec.EndArg(LayerDevice, OpLogWriteAt, l.rec.Start(), len(p))
	return l.inner.WriteAt(p, off)
}

func (l *logFile) Truncate(size int64) error {
	defer l.rec.End(LayerDevice, OpLogTruncate, l.rec.Start())
	return l.inner.Truncate(size)
}

func (l *logFile) Sync() error {
	defer l.rec.End(LayerDevice, OpLogSync, l.rec.Start())
	return l.inner.Sync()
}
