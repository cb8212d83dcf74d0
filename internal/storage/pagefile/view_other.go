//go:build !unix

package pagefile

import (
	"io"
	"os"
)

// fileView reads pages with a pread (ReadAt): the one path on platforms
// without the unix mapping calls.
type fileView struct{}

func openView(int64) fileView { return fileView{} }

func (*fileView) wrote(int64) {}

// readPage reads the page at byte offset off into buf (len PageSize). A page
// the file does not hold yet, or holds only in part, reads as zeros past its
// end.
func (*fileView) readPage(f *os.File, off int64, buf []byte) error {
	n, err := f.ReadAt(buf, off)
	if err == io.EOF {
		clear(buf[n:])
		return nil
	}
	return err
}

func (*fileView) release() error { return nil }
