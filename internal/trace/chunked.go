package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"fvcache/internal/obs"
)

// Chunked columnar trace compression
//
// A ChunkedRecording re-encodes a Recording's access columns as
// fixed-size chunks of compressed column streams. The miss-rate-curve
// engine (internal/mrc) walks it chunk by chunk:
//
//   - ops: one bit per access (store=1), 8x smaller than the op byte
//     column and branch-free to expand.
//   - addrs: first address as a plain varint, then zig-zag varint
//     deltas (addresses cluster, so deltas are short), as in the FVT1
//     stream codec.
//   - vals: frame-of-reference coding — the chunk's minimum value is
//     stored once and each value as the varint of its residual, so
//     chunks dominated by a few magnitudes (frequent value locality!)
//     compress to a byte or two per word.
//
// Chunks decompress one at a time into a reused ChunkScratch, so a
// steady-state walk touches a bounded working set (compressed
// chunk + scratch) instead of streaming the full 9-bytes-per-event
// columns, and performs zero allocations. Decoding is hardened the
// same way the FVT1 Reader is: corrupt bytes yield a *CorruptError
// (offset relative to the failing chunk column, event index absolute),
// never a panic or a garbage out-of-range value.
//
// A ChunkedRecording is immutable after construction; concurrent
// replays may share one instance as long as each uses its own
// ChunkScratch.

// DefaultChunkAccesses is the chunk granularity used when a caller
// passes a non-positive chunk size: large enough that per-chunk
// overheads (varint stream setup, per-chunk counter flushes) vanish,
// small enough that the decode scratch stays a bounded working set.
const DefaultChunkAccesses = 1 << 16

// chunkRec is one compressed chunk.
type chunkRec struct {
	n       int    // accesses in this chunk
	stores  []byte // bit i set = access i is a store
	addrs   []byte // varint(addr[0]), then zig-zag varint deltas
	vals    []byte // varint residuals against valBase
	valBase uint32 // frame-of-reference minimum for vals
}

// ChunkedRecording is the compressed form of a Recording's access
// columns. Build one with CompressColumns or the cached
// Recording.Chunked.
type ChunkedRecording struct {
	chunkTarget int
	accesses    uint64
	starts      []uint64 // starts[i] = first access of chunk i; len = Chunks()+1
	chunks      []chunkRec
	bytes       int64 // total compressed bytes (columns + headers)
}

// ChunkScratch is the reusable decode buffer for DecodeChunk. After
// the first decode of a maximal chunk its capacity suffices for every
// chunk of the recording, so steady-state decoding allocates nothing.
// A scratch must not be shared across goroutines.
type ChunkScratch struct {
	ops   []Op
	addrs []uint32
	vals  []uint32
}

// CompressColumns builds a ChunkedRecording from packed access-only
// columns (the shape Recording.AccessColumns returns). chunkAccesses
// <= 0 selects DefaultChunkAccesses. It panics on mismatched column
// lengths or non-access ops — those are programming errors, not data.
func CompressColumns(ops []Op, addrs, vals []uint32, chunkAccesses int) *ChunkedRecording {
	if len(addrs) != len(ops) || len(vals) != len(ops) {
		panic("trace: CompressColumns column length mismatch")
	}
	if chunkAccesses <= 0 {
		chunkAccesses = DefaultChunkAccesses
	}
	c := &ChunkedRecording{
		chunkTarget: chunkAccesses,
		accesses:    uint64(len(ops)),
	}
	for s := 0; s < len(ops); s += chunkAccesses {
		e := s + chunkAccesses
		if e > len(ops) {
			e = len(ops)
		}
		c.starts = append(c.starts, uint64(s))
		cr := chunkRec{n: e - s}
		cr.stores = make([]byte, (cr.n+7)/8)
		minV := vals[s]
		for i := s; i < e; i++ {
			if vals[i] < minV {
				minV = vals[i]
			}
		}
		cr.valBase = minV
		prev := uint32(0)
		for i := s; i < e; i++ {
			op := ops[i]
			if !op.IsAccess() {
				panic(fmt.Sprintf("trace: CompressColumns on non-access op %v", op))
			}
			if op == Store {
				cr.stores[(i-s)>>3] |= 1 << uint((i-s)&7)
			}
			if i == s {
				cr.addrs = binary.AppendUvarint(cr.addrs, uint64(addrs[i]))
			} else {
				cr.addrs = binary.AppendUvarint(cr.addrs, zigzag(int64(addrs[i])-int64(prev)))
			}
			prev = addrs[i]
			cr.vals = binary.AppendUvarint(cr.vals, uint64(vals[i]-minV))
		}
		c.bytes += int64(len(cr.stores)+len(cr.addrs)+len(cr.vals)) + 4 // +4: valBase header
		c.chunks = append(c.chunks, cr)
	}
	c.starts = append(c.starts, uint64(len(ops)))
	return c
}

// Chunks returns the number of chunks.
func (c *ChunkedRecording) Chunks() int { return len(c.chunks) }

// Accesses returns the total number of encoded accesses.
func (c *ChunkedRecording) Accesses() uint64 { return c.accesses }

// CompressedBytes returns the total compressed size: columns and
// per-chunk headers.
func (c *ChunkedRecording) CompressedBytes() int64 { return c.bytes }

// BytesPerAccess returns the compressed bytes per access. The
// uncompressed columnar form costs 9 bytes per event.
func (c *ChunkedRecording) BytesPerAccess() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.bytes) / float64(c.accesses)
}

// corrupt builds the located error for chunk i and counts it; off is
// the byte offset within the failing column, event the global access
// index.
func (c *ChunkedRecording) corrupt(i, off int, event uint64, cause error) error {
	if errors.Is(cause, io.EOF) {
		cause = io.ErrUnexpectedEOF
	}
	obs.TraceCorrupt.Inc()
	return &CorruptError{Offset: int64(off), Event: event, Cause: cause}
}

// chunkUvarint decodes one capped uvarint from buf at pos, returning
// the value and the new position. Over-long encodings, truncation and
// out-of-range results are rejected (same caps as the FVT1 Reader).
func chunkUvarint(buf []byte, pos int, max uint64) (uint64, int, error) {
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		if pos >= len(buf) {
			return 0, pos, io.ErrUnexpectedEOF
		}
		b := buf[pos]
		pos++
		if i == maxVarintBytes-1 && b >= 1<<(40-7*maxVarintBytes) {
			return 0, pos, fmt.Errorf("varint overflows %d bytes", maxVarintBytes)
		}
		if i >= maxVarintBytes {
			return 0, pos, fmt.Errorf("varint longer than %d bytes", maxVarintBytes)
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
		shift += 7
	}
	if v > max {
		return 0, pos, fmt.Errorf("varint %d out of range (max %d)", v, max)
	}
	return v, pos, nil
}

// growOps returns a slice of length n, reusing s's capacity.
func growOps(s []Op, n int) []Op {
	if cap(s) < n {
		return make([]Op, n)
	}
	return s[:n]
}

// growU32 returns a slice of length n, reusing s's capacity.
func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

// DecodeChunk expands chunk i into s and returns the decoded column
// slices (aliases of s's buffers, valid until the next decode into s).
// Corrupt chunk bytes yield a *CorruptError; the scratch contents are
// then undefined.
func (c *ChunkedRecording) DecodeChunk(i int, s *ChunkScratch) (ops []Op, addrs, vals []uint32, err error) {
	ch := &c.chunks[i]
	n := ch.n
	base := c.starts[i]
	if len(ch.stores) != (n+7)/8 {
		return nil, nil, nil, c.corrupt(i, 0, base, fmt.Errorf("store bitset is %d bytes, want %d", len(ch.stores), (n+7)/8))
	}
	s.ops = growOps(s.ops, n)
	s.addrs = growU32(s.addrs, n)
	s.vals = growU32(s.vals, n)

	pos := 0
	prev := uint32(0)
	for j := 0; j < n; j++ {
		if ch.stores[j>>3]&(1<<uint(j&7)) != 0 {
			s.ops[j] = Store
		} else {
			s.ops[j] = Load
		}
		var u uint64
		var uerr error
		if j == 0 {
			u, pos, uerr = chunkUvarint(ch.addrs, pos, maxValueUvarint)
			if uerr != nil {
				return nil, nil, nil, c.corrupt(i, pos, base+uint64(j), uerr)
			}
			prev = uint32(u)
		} else {
			u, pos, uerr = chunkUvarint(ch.addrs, pos, maxDeltaUvarint)
			if uerr != nil {
				return nil, nil, nil, c.corrupt(i, pos, base+uint64(j), uerr)
			}
			prev = uint32(int64(prev) + unzigzag(u))
		}
		s.addrs[j] = prev
	}
	if pos != len(ch.addrs) {
		return nil, nil, nil, c.corrupt(i, pos, base+uint64(n), fmt.Errorf("%d trailing bytes in addr column", len(ch.addrs)-pos))
	}

	pos = 0
	vb := uint64(ch.valBase)
	for j := 0; j < n; j++ {
		u, p, uerr := chunkUvarint(ch.vals, pos, maxValueUvarint)
		if uerr != nil {
			return nil, nil, nil, c.corrupt(i, p, base+uint64(j), uerr)
		}
		pos = p
		v := vb + u
		if v > maxValueUvarint {
			return nil, nil, nil, c.corrupt(i, pos, base+uint64(j), fmt.Errorf("value residual %d overflows base %d", u, vb))
		}
		s.vals[j] = uint32(v)
	}
	if pos != len(ch.vals) {
		return nil, nil, nil, c.corrupt(i, pos, base+uint64(n), fmt.Errorf("%d trailing bytes in value column", len(ch.vals)-pos))
	}
	return s.ops, s.addrs, s.vals, nil
}

// DecodeChunkAddrs expands only chunk i's address column into s and
// returns the decoded addresses (an alias of s's buffer, valid until
// the next decode into s). Consumers that are functions of the address
// stream alone — the reuse-distance analysis in internal/mrc — skip
// the store-bitset expansion and the value column entirely, roughly
// halving decode work per access. Corrupt chunk bytes yield a
// *CorruptError; the scratch contents are then undefined.
func (c *ChunkedRecording) DecodeChunkAddrs(i int, s *ChunkScratch) (addrs []uint32, err error) {
	ch := &c.chunks[i]
	n := ch.n
	base := c.starts[i]
	s.addrs = growU32(s.addrs, n)
	pos := 0
	prev := uint32(0)
	for j := 0; j < n; j++ {
		var u uint64
		var uerr error
		if j == 0 {
			u, pos, uerr = chunkUvarint(ch.addrs, pos, maxValueUvarint)
			if uerr != nil {
				return nil, c.corrupt(i, pos, base+uint64(j), uerr)
			}
			prev = uint32(u)
		} else {
			u, pos, uerr = chunkUvarint(ch.addrs, pos, maxDeltaUvarint)
			if uerr != nil {
				return nil, c.corrupt(i, pos, base+uint64(j), uerr)
			}
			prev = uint32(int64(prev) + unzigzag(u))
		}
		s.addrs[j] = prev
	}
	if pos != len(ch.addrs) {
		return nil, c.corrupt(i, pos, base+uint64(n), fmt.Errorf("%d trailing bytes in addr column", len(ch.addrs)-pos))
	}
	return s.addrs, nil
}

// ChunkStoreCount returns the number of store accesses in chunk i: a
// popcount over the packed store bitset, so callers that need only the
// load/store split (not the per-access op column) never expand it.
func (c *ChunkedRecording) ChunkStoreCount(i int) int {
	ch := &c.chunks[i]
	n := 0
	for _, b := range ch.stores {
		n += bits.OnesCount8(b)
	}
	return n
}
