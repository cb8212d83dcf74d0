//go:build unix

package pagefile

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"syscall"
)

// fileView serves a file backing's page reads from a read-only MAP_SHARED
// mapping of its file. A shared mapping is the page cache itself, so every
// pwrite to the file, through this backing or any other descriptor, is
// visible to the next copy out of it; writes stay pwrites (and Sync an
// fsync) because a writable mapping would let a process that dies mid-copy
// leave a torn page, and growing the file under it would need ftruncate.
//
// The mapping is read only below end, the bytes the file is known to hold,
// so no read can touch mapped pages past the end of the file, which fault
// with SIGBUS. A page at or past end — grown but never written — is
// zero-filled without touching the mapping, after one stat in case another
// writer extended the file.
type fileView struct {
	mem []byte // the mapping; nil until a read first needs it
	end int64  // bytes the file is known to hold, from OpenFile's stat and WritePage
}

func openView(size int64) fileView { return fileView{end: size} }

// wrote records that the file now holds at least end bytes.
func (v *fileView) wrote(end int64) { v.end = max(v.end, end) }

// readPage copies the page at byte offset off into buf (len PageSize). The
// caller holds the backing's mutex, which also serializes remaps.
func (v *fileView) readPage(f *os.File, off int64, buf []byte) error {
	if off+PageSize > v.end {
		info, err := f.Stat()
		if err != nil {
			return err
		}
		v.end = info.Size()
	}
	n := min(max(v.end-off, 0), PageSize)
	if n > 0 {
		if off+n > int64(len(v.mem)) {
			if err := v.remap(f, off+n); err != nil {
				return err
			}
		}
		if err := copyOut(buf[:n], v.mem[off:off+n]); err != nil {
			return err
		}
	}
	clear(buf[n:])
	return nil
}

// errMappedFault reports a read of the mapping that faulted: the file shrank
// under it or its medium failed.
var errMappedFault = errors.New("fault reading the mapped page file")

// copyOut copies src out of the mapping into dst. A fault there — the file
// was truncated behind the backing's back, or the medium failed — comes
// back as an error, as pread's would, instead of killing the process.
func copyOut(dst, src []byte) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(interface{ Addr() uintptr }); !ok {
				panic(r)
			}
			err = errMappedFault
		}
	}()
	copy(dst, src)
	return nil
}

// remap replaces the mapping with one at least need bytes long: the first
// is mapReserve bytes, and each later one doubles until it covers need.
func (v *fileView) remap(f *os.File, need int64) error {
	size := max(int64(len(v.mem)), mapReserve)
	for size < need {
		size *= 2
	}
	if size > math.MaxInt {
		return fmt.Errorf("mapping of %d bytes exceeds the address space", size)
	}
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var mem []byte
	var merr error
	if err := rc.Control(func(fd uintptr) {
		mem, merr = syscall.Mmap(int(fd), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	}); err != nil {
		return err
	}
	if merr != nil {
		return fmt.Errorf("map page file: %w", merr)
	}
	old := v.mem
	v.mem = mem
	return unmap(old)
}

// release unmaps the mapping, if there is one.
func (v *fileView) release() error {
	err := unmap(v.mem)
	v.mem = nil
	return err
}

func unmap(mem []byte) error {
	if mem == nil {
		return nil
	}
	if err := syscall.Munmap(mem); err != nil {
		return fmt.Errorf("unmap page file: %w", err)
	}
	return nil
}
