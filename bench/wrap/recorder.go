// Package wrap holds the benchmark's outside-in instrumentation: timing and
// counting decorators for the public seam of every layer (labbase.Store and
// its snapshots, storage.Manager, pagefile.Backing, ostore.LogFile,
// net.Listener/net.Conn) and the in-memory span recorder they share.
//
// Nothing here reaches inside the decorated layer; a decorator forwards
// every call unchanged and records one span around it. Decorators are only
// installed for a traced run, and even then record nothing until the
// recorder is switched on, so one process can measure an untraced reference
// window and a traced window over the same store.
package wrap

import (
	"sync/atomic"
	"time"
)

// Layer names the module a span was recorded around.
type Layer uint8

// Layers, outermost first. LayerReader is labbase reached through a
// snapshot the deductive bridge holds open (the calls LayerQuery encloses);
// it reports as "labbase" but is kept apart so aggregate self times
// telescope without per-span attribution.
const (
	LayerClient  Layer = iota // the benchmark worker's own call span
	LayerQuery                // lbq+datalog: Store.Snapshot() .. Snapshot.Close()
	LayerLabbase              // labbase.Store entry points
	LayerReader               // labbase.Reader calls on a held snapshot
	LayerStorage              // storage.Manager
	LayerDevice               // pagefile.Backing and ostore.LogFile
	NumLayers
)

var layerNames = [NumLayers]string{"client", "lbq", "labbase", "labbase", "storage", "pagefile"}

// String returns the module name the layer reports under.
func (l Layer) String() string { return layerNames[l] }

// Span is one recorded call. Times are nanoseconds since the recorder's
// base instant. Worker and Seq identify the request on client spans (Worker is
// NoWorker elsewhere); Arg carries a byte count on device spans and a
// solution count on query client spans.
type Span struct {
	Start, End int64
	Seq        uint32
	Arg        uint32
	Layer      Layer
	Op         Op
	Worker     uint8
}

// NoWorker marks a span that was not recorded by a benchmark worker.
const NoWorker = 0xFF

// Recorder is a fixed-capacity in-memory span log shared by every decorator
// of one run. Recording is lock-free (one atomic slot claim per span); spans
// past the capacity are counted and dropped.
type Recorder struct {
	base    time.Time
	on      atomic.Bool
	next    atomic.Int64
	dropped atomic.Int64
	spans   []Span
}

// NewRecorder allocates room for capacity spans. Span times count from
// base, so a caller that keeps its own monotonic clock on the same base can
// Add spans built from timestamps it already took.
func NewRecorder(capacity int, base time.Time) *Recorder {
	return &Recorder{base: base, spans: make([]Span, capacity)}
}

// Enable switches recording on or off. Decorators forward without timing
// while it is off.
func (r *Recorder) Enable(on bool) { r.on.Store(on) }

// Start returns the current time for a span about to begin, or -1 when
// recording is off (End then ignores the span).
func (r *Recorder) Start() int64 {
	if !r.on.Load() {
		return -1
	}
	return r.Now()
}

// Now returns recorder time: nanoseconds since its base instant.
func (r *Recorder) Now() int64 {
	return int64(time.Since(r.base)) //lint:allow wallclock span timing, never persisted
}

// End records a span begun at start.
func (r *Recorder) End(layer Layer, op Op, start int64) {
	if start < 0 {
		return
	}
	r.Add(Span{Start: start, End: r.Now(), Layer: layer, Op: op, Worker: NoWorker})
}

// EndArg is End with a payload (bytes moved) attached.
func (r *Recorder) EndArg(layer Layer, op Op, start int64, arg int) {
	if start < 0 {
		return
	}
	r.Add(Span{Start: start, End: r.Now(), Layer: layer, Op: op, Worker: NoWorker, Arg: uint32(arg)})
}

// Add appends a fully formed span (the benchmark workers build their own
// client spans from the timestamps they already take).
func (r *Recorder) Add(s Span) {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return
	}
	r.spans[i] = s
}

// Spans returns the recorded spans (call only after every recording
// goroutine has quiesced) and the number dropped for lack of room.
func (r *Recorder) Spans() ([]Span, int64) {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n], r.dropped.Load()
}

// Reset forgets every recorded span.
func (r *Recorder) Reset() {
	r.next.Store(0)
	r.dropped.Store(0)
}
