package wire

import (
	"errors"
	"fmt"

	"labflow/internal/labbase"
	"labflow/internal/rec"
	"labflow/internal/storage"
	"labflow/internal/storage/texas"
)

// Error frames are structured so sentinel identity survives the wire:
//
//	u8  code — a well-known sentinel (codeGeneric when none applies)
//	... code-specific payload, usually just the message string
//
// The message is always the server-side error's exact bytes, so a client
// that only prints the error sees what a local caller would have seen; the
// code lets errors.Is keep working across the process boundary, which the
// distributed shard router depends on (it must route on ErrCrossShard and
// ErrNoSuchObject exactly as a caller of the shard's store would).
const (
	codeGeneric uint8 = 0
	// codeBatch carries a labbase.BatchError structurally —
	// [index uvarint][inner code u8][inner message] — so the router can
	// re-stitch a shard-local failing index into the original batch
	// position. Only an unwrapped *labbase.BatchError uses it; wrapped
	// forms (commit-failure suffixes) fall back to codeGeneric to keep
	// their full message bytes.
	codeBatch uint8 = 1
)

// sentinelCodes maps well-known sentinels onto wire codes. First match by
// errors.Is wins, so an error wrapping several sentinels (rare) is coded by
// the earliest entry. Codes are part of the protocol: append, never renumber.
var sentinelCodes = []struct {
	code uint8
	err  error
}{
	{2, storage.ErrNoSuchObject},
	{3, labbase.ErrCrossShard},
	{4, texas.ErrTornStore},
	{5, labbase.ErrNoTransaction},
	{6, labbase.ErrUnknownClass},
	{7, labbase.ErrUnknownAttr},
	{8, labbase.ErrUnknownState},
	{9, labbase.ErrKindMismatch},
	{10, labbase.ErrNotMaterial},
	// 11 was labbase's no-such-version sentinel, retired when RecordStep
	// began creating a version for every new attribute set.
	{12, labbase.ErrDuplicateName},
	{13, storage.ErrSegmentFull},
}

func codeFor(err error) uint8 {
	for _, s := range sentinelCodes {
		if errors.Is(err, s.err) {
			return s.code
		}
	}
	return codeGeneric
}

func sentinelFor(code uint8) error {
	for _, s := range sentinelCodes {
		if s.code == code {
			return s.err
		}
	}
	return nil
}

// encodeRemoteErr writes one error-frame payload (see the format above).
func encodeRemoteErr(e *rec.Encoder, err error) {
	if be, ok := err.(*labbase.BatchError); ok {
		e.Byte(codeBatch)
		e.Uint(uint64(be.Index))
		e.Byte(codeFor(be.Err))
		e.String(be.Err.Error())
		return
	}
	e.Byte(codeFor(err))
	e.String(err.Error())
}

// decodeRemoteErr parses one error-frame payload into a RemoteError (or
// RemoteBatchError); both match ErrRemote and unwrap to the coded sentinel.
func decodeRemoteErr(d *rec.Decoder) error {
	code := d.Byte()
	if code == codeBatch {
		idx := int(d.Uint())
		inner := &RemoteError{code: d.Byte(), Msg: d.String()}
		if d.Err() != nil {
			return fmt.Errorf("%w: malformed batch error frame", ErrRemote)
		}
		return &RemoteBatchError{labbase.BatchError{Index: idx, Err: inner.Bare()}}
	}
	msg := d.String()
	if d.Err() != nil {
		return fmt.Errorf("%w: malformed error frame", ErrRemote)
	}
	return &RemoteError{code: code, Msg: msg}
}

// RemoteError is an error reported by the server. Its message keeps the
// exact server-side bytes behind the "wire: remote error: " prefix, it
// matches ErrRemote via errors.Is, and it unwraps to the sentinel the
// server coded it with (so errors.Is(err, storage.ErrNoSuchObject) works
// across the wire).
type RemoteError struct {
	Msg  string // the server-side error's exact bytes
	code uint8
}

func (e *RemoteError) Error() string { return "wire: remote error: " + e.Msg }

func (e *RemoteError) Is(target error) bool { return target == ErrRemote }

func (e *RemoteError) Unwrap() error { return sentinelFor(e.code) }

// Bare strips the wire prefix: the returned error prints the server-side
// bytes verbatim and still unwraps to the coded sentinel. The shard router
// uses it so errors it relays are byte-identical to the shard store's own.
func (e *RemoteError) Bare() error { return &bareError{msg: e.Msg, code: e.code} }

type bareError struct {
	msg  string
	code uint8
}

func (e *bareError) Error() string { return e.msg }

func (e *bareError) Unwrap() error { return sentinelFor(e.code) }

// RemoteBatchError is a server-reported labbase.BatchError: Index is the
// failing entry's position in the batch as the server saw it, Err the
// entry's own (bare) remote error. It matches ErrRemote and unwraps to the
// embedded BatchError, so errors.As recovers the index client-side.
type RemoteBatchError struct {
	labbase.BatchError
}

func (e *RemoteBatchError) Error() string { return "wire: remote error: " + e.BatchError.Error() }

func (e *RemoteBatchError) Is(target error) bool { return target == ErrRemote }

func (e *RemoteBatchError) Unwrap() error { return &e.BatchError }
