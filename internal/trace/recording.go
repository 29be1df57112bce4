package trace

import (
	"errors"
	"io"
	"sync"
)

// Recording is a packed in-memory trace: the full event stream of one
// workload execution, stored as flat columnar buffers (one slice per
// Event field) so a recorded run can be replayed many times without
// re-executing the workload. Nine bytes per event, contiguous, cache
// friendly.
//
// The record-once/replay-many sweep engine is built on this type: a
// configuration sweep records each (workload, scale) pair once and
// fans the replays across worker goroutines. A Recording is immutable
// after recording finishes, so concurrent replays of the same
// Recording are safe.
type Recording struct {
	ops      []Op
	addrs    []uint32
	vals     []uint32
	accesses uint64

	// acc is the lazily built access-only projection (see
	// AccessColumns). The sync.Once makes the first materialization
	// safe under concurrent replays of an immutable recording.
	acc accessCols

	// chunked caches compressed+checkpointed forms by chunk size (see
	// Chunked). Guarded by chunkMu: unlike acc there can be several
	// granularities alive at once.
	chunkMu sync.Mutex
	chunked map[int]*ChunkedRecording
}

// accessCols is the packed access-only projection of the columns.
type accessCols struct {
	once  sync.Once
	ops   []Op
	addrs []uint32
	vals  []uint32
}

// NewRecording returns an empty Recording ready to record into.
func NewRecording() *Recording { return &Recording{} }

// Emit implements Sink by appending e to the columnar buffers.
func (r *Recording) Emit(e Event) { r.Append(e.Op, e.Addr, e.Value) }

// Append records one event without constructing an Event value.
func (r *Recording) Append(op Op, addr, value uint32) {
	r.ops = append(r.ops, op)
	r.addrs = append(r.addrs, addr)
	r.vals = append(r.vals, value)
	if op.IsAccess() {
		r.accesses++
	}
}

// Len returns the number of recorded events.
func (r *Recording) Len() int { return len(r.ops) }

// Accesses returns the number of recorded loads and stores.
func (r *Recording) Accesses() uint64 { return r.accesses }

// At returns event i.
func (r *Recording) At(i int) Event {
	return Event{Op: r.ops[i], Addr: r.addrs[i], Value: r.vals[i]}
}

// Columns exposes the raw columnar buffers. Callers that drive a
// concrete consumer (the simulator's replay loop) iterate these
// directly, paying one direct method call per event instead of a
// Sink interface dispatch. The slices must not be mutated.
func (r *Recording) Columns() (ops []Op, addrs, values []uint32) {
	return r.ops, r.addrs, r.vals
}

// AccessColumns exposes packed columnar buffers holding only the
// access events (loads and stores), in stream order. A cache hierarchy
// is a function of the access subsequence alone, so batched replay
// loops iterate these instead of Columns: no per-event op filtering,
// and the i-th element is exactly the i-th access, which turns hook
// boundaries (warmup, sampling, audit counts) into plain slice
// offsets. The projection is materialized lazily on first use and
// shared thereafter; concurrent callers are safe because a Recording
// is immutable once recorded. The slices must not be mutated.
func (r *Recording) AccessColumns() (ops []Op, addrs, values []uint32) {
	r.acc.once.Do(func() {
		if r.accesses == uint64(len(r.ops)) {
			// Pure access stream: share the primary columns outright.
			r.acc.ops, r.acc.addrs, r.acc.vals = r.ops, r.addrs, r.vals
			return
		}
		ops := make([]Op, 0, r.accesses)
		addrs := make([]uint32, 0, r.accesses)
		vals := make([]uint32, 0, r.accesses)
		for i, op := range r.ops {
			if op.IsAccess() {
				ops = append(ops, op)
				addrs = append(addrs, r.addrs[i])
				vals = append(vals, r.vals[i])
			}
		}
		r.acc.ops, r.acc.addrs, r.acc.vals = ops, addrs, vals
	})
	return r.acc.ops, r.acc.addrs, r.acc.vals
}

// Chunked returns the compressed form of the access columns at the given chunk granularity (<= 0 selects
// DefaultChunkAccesses), building it on first use and caching it per
// granularity thereafter. Safe for concurrent callers on an immutable
// recording; the returned ChunkedRecording is itself immutable and
// shareable.
func (r *Recording) Chunked(chunkAccesses int) *ChunkedRecording {
	if chunkAccesses <= 0 {
		chunkAccesses = DefaultChunkAccesses
	}
	r.chunkMu.Lock()
	defer r.chunkMu.Unlock()
	if c, ok := r.chunked[chunkAccesses]; ok {
		return c
	}
	ops, addrs, vals := r.AccessColumns()
	c := CompressColumns(ops, addrs, vals, chunkAccesses)
	if r.chunked == nil {
		r.chunked = make(map[int]*ChunkedRecording)
	}
	r.chunked[chunkAccesses] = c
	return c
}

// Reset discards all recorded events, keeping the primary buffers for
// reuse. The caller must have exclusive ownership (no concurrent
// replays), as with recording itself.
func (r *Recording) Reset() {
	r.ops = r.ops[:0]
	r.addrs = r.addrs[:0]
	r.vals = r.vals[:0]
	r.accesses = 0
	r.acc = accessCols{}
	r.chunkMu.Lock()
	r.chunked = nil
	r.chunkMu.Unlock()
}

// Replay sends every recorded event to dst in order. For Sink
// consumers (profilers, histograms); the simulator uses Columns to
// avoid the per-event interface dispatch.
func (r *Recording) Replay(dst Sink) {
	for i := range r.ops {
		dst.Emit(Event{Op: r.ops[i], Addr: r.addrs[i], Value: r.vals[i]})
	}
}

// WriteTo spills the recording to w in the FVT1 binary trace format,
// reusing the varint delta codec. It returns the number of events
// written (not bytes, which the bufio layer hides). Use ReadRecording
// to load it back.
func (r *Recording) WriteTo(w io.Writer) (int64, error) {
	tw, err := NewWriter(w)
	if err != nil {
		return 0, err
	}
	for i := range r.ops {
		tw.Emit(Event{Op: r.ops[i], Addr: r.addrs[i], Value: r.vals[i]})
	}
	if err := tw.Flush(); err != nil {
		return 0, err
	}
	return int64(tw.Count()), nil
}

// ReadRecording loads a complete FVT1 trace stream into a Recording.
// A corrupt stream yields the *CorruptError from the hardened Reader.
func ReadRecording(rd io.Reader) (*Recording, error) {
	tr, err := NewReader(rd)
	if err != nil {
		return nil, err
	}
	r := NewRecording()
	for {
		e, err := tr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return r, nil
			}
			return nil, err
		}
		r.Append(e.Op, e.Addr, e.Value)
	}
}
