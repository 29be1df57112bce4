package trace

import (
	"errors"
	"testing"
)

// synthColumns builds deterministic access columns with clustered
// addresses and skewed (frequent) values, the shape real workloads
// produce.
func synthColumns(n int, seed uint64) (ops []Op, addrs, vals []uint32) {
	x := seed | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	ops = make([]Op, n)
	addrs = make([]uint32, n)
	vals = make([]uint32, n)
	base := uint32(0x1000)
	for i := 0; i < n; i++ {
		r := next()
		if r&3 == 0 {
			ops[i] = Store
		} else {
			ops[i] = Load
		}
		if r&0xf0 == 0 {
			base = uint32(r>>8) &^ 3 // occasional far jump
		}
		addrs[i] = (base + uint32(r>>32)%256*WordBytes) &^ 3
		switch (r >> 16) & 7 {
		case 0, 1, 2, 3:
			vals[i] = 0 // frequent value
		case 4:
			vals[i] = 0xffffffff
		default:
			vals[i] = uint32(r >> 24)
		}
	}
	return ops, addrs, vals
}

func TestChunkedRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000, 5000} {
		for _, chunk := range []int{1, 3, 97, 1 << 20} {
			ops, addrs, vals := synthColumns(n, uint64(n*31+chunk))
			c := CompressColumns(ops, addrs, vals, chunk)
			if got := c.Accesses(); got != uint64(n) {
				t.Fatalf("n=%d chunk=%d: Accesses=%d", n, chunk, got)
			}
			wantChunks := (n + chunk - 1) / chunk
			if got := c.Chunks(); got != wantChunks {
				t.Fatalf("n=%d chunk=%d: Chunks=%d want %d", n, chunk, got, wantChunks)
			}
			if c.starts[c.Chunks()] != uint64(n) {
				t.Fatalf("n=%d chunk=%d: final start=%d", n, chunk, c.starts[c.Chunks()])
			}
			var s ChunkScratch
			pos := 0
			for i := 0; i < c.Chunks(); i++ {
				if c.starts[i] != uint64(pos) {
					t.Fatalf("chunk %d: start=%d want %d", i, c.starts[i], pos)
				}
				dops, daddrs, dvals, err := c.DecodeChunk(i, &s)
				if err != nil {
					t.Fatalf("chunk %d: decode: %v", i, err)
				}
				if len(dops) != c.chunks[i].n {
					t.Fatalf("chunk %d: len=%d want %d", i, len(dops), c.chunks[i].n)
				}
				for j := range dops {
					if dops[j] != ops[pos+j] || daddrs[j] != addrs[pos+j] || dvals[j] != vals[pos+j] {
						t.Fatalf("chunk %d event %d: got (%v,%#x,%#x) want (%v,%#x,%#x)",
							i, j, dops[j], daddrs[j], dvals[j], ops[pos+j], addrs[pos+j], vals[pos+j])
					}
				}
				pos += len(dops)
			}
			if pos != n {
				t.Fatalf("decoded %d accesses, want %d", pos, n)
			}
		}
	}
}

func TestChunkedBytesPerAccess(t *testing.T) {
	ops, addrs, vals := synthColumns(20000, 7)
	c := CompressColumns(ops, addrs, vals, 0)
	if c.chunkTarget != DefaultChunkAccesses {
		t.Fatalf("ChunkTarget=%d", c.chunkTarget)
	}
	bpa := c.BytesPerAccess()
	if bpa <= 0 || bpa >= 9 {
		t.Fatalf("BytesPerAccess=%.2f, want in (0, 9)", bpa)
	}
	if c.CompressedBytes() <= 0 {
		t.Fatalf("CompressedBytes=%d", c.CompressedBytes())
	}
}

func TestChunkedDecodeZeroAllocsSteadyState(t *testing.T) {
	ops, addrs, vals := synthColumns(4096, 99)
	c := CompressColumns(ops, addrs, vals, 512)
	var s ChunkScratch
	for i := 0; i < c.Chunks(); i++ { // warm the scratch
		if _, _, _, err := c.DecodeChunk(i, &s); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < c.Chunks(); i++ {
			if _, _, _, err := c.DecodeChunk(i, &s); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeChunk allocates %.1f/run, want 0", allocs)
	}
}

// TestChunkedCorruptColumns flips bytes in every compressed column and
// requires decode to fail with *CorruptError — never panic, never
// return garbage silently for structurally invalid streams.
func TestChunkedCorruptColumns(t *testing.T) {
	ops, addrs, vals := synthColumns(1000, 5)
	mutate := func(name string, f func(c *ChunkedRecording)) {
		c := CompressColumns(ops, addrs, vals, 128)
		f(c)
		var s ChunkScratch
		for i := 0; i < c.Chunks(); i++ {
			if _, _, _, err := c.DecodeChunk(i, &s); err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("%s: decode error is %T, want *CorruptError: %v", name, err, err)
				}
				return
			}
		}
		t.Fatalf("%s: corruption not detected", name)
	}
	mutate("truncated addrs", func(c *ChunkedRecording) {
		c.chunks[2].addrs = c.chunks[2].addrs[:len(c.chunks[2].addrs)-1]
	})
	mutate("trailing addr bytes", func(c *ChunkedRecording) {
		c.chunks[2].addrs = append(c.chunks[2].addrs, 0)
	})
	mutate("overlong varint", func(c *ChunkedRecording) {
		c.chunks[1].vals = append([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 1}, c.chunks[1].vals...)
	})
	mutate("truncated vals", func(c *ChunkedRecording) {
		c.chunks[1].vals = c.chunks[1].vals[:len(c.chunks[1].vals)/2]
	})
	mutate("short bitset", func(c *ChunkedRecording) {
		c.chunks[0].stores = c.chunks[0].stores[:len(c.chunks[0].stores)-1]
	})
}

func TestRecordingChunkedCache(t *testing.T) {
	r := NewRecording()
	ops, addrs, vals := synthColumns(3000, 11)
	for i := range ops {
		r.Append(ops[i], addrs[i], vals[i])
	}
	c1 := r.Chunked(500)
	c2 := r.Chunked(500)
	if c1 != c2 {
		t.Fatal("Chunked(500) not cached")
	}
	if c3 := r.Chunked(0); c3.chunkTarget != DefaultChunkAccesses {
		t.Fatalf("Chunked(0) target=%d", c3.chunkTarget)
	}
	if r.Chunked(0) != r.Chunked(DefaultChunkAccesses) {
		t.Fatal("Chunked(0) and Chunked(default) not shared")
	}
	r.Reset()
	if len(r.chunked) != 0 {
		t.Fatal("Reset did not drop chunked cache")
	}
}

// FuzzColumnCodec drives compress→decode round trips and then decode
// over corrupted columns: round trips must be exact, and corruption
// must surface as *CorruptError, never a panic.
func FuzzColumnCodec(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint32(0))
	f.Add([]byte{1, 0, 0, 16, 0, 0, 0, 0, 42, 0, 0, 0, 20, 0, 255, 255, 255, 255}, uint16(1), uint32(3))
	ops, addrs, vals := synthColumns(64, 13)
	seedBytes := make([]byte, 0, 64*9)
	for i := range ops {
		seedBytes = append(seedBytes, byte(ops[i]),
			byte(addrs[i]), byte(addrs[i]>>8), byte(addrs[i]>>16), byte(addrs[i]>>24),
			byte(vals[i]), byte(vals[i]>>8), byte(vals[i]>>16), byte(vals[i]>>24))
	}
	f.Add(seedBytes, uint16(7), uint32(100))
	f.Fuzz(func(t *testing.T, data []byte, chunkSize uint16, flip uint32) {
		n := len(data) / 9
		ops := make([]Op, n)
		addrs := make([]uint32, n)
		vals := make([]uint32, n)
		for i := 0; i < n; i++ {
			g := data[i*9 : i*9+9]
			if g[0]&1 == 1 {
				ops[i] = Store
			} else {
				ops[i] = Load
			}
			addrs[i] = (uint32(g[1]) | uint32(g[2])<<8 | uint32(g[3])<<16 | uint32(g[4])<<24) &^ 3
			vals[i] = uint32(g[5]) | uint32(g[6])<<8 | uint32(g[7])<<16 | uint32(g[8])<<24
		}
		chunk := int(chunkSize%1024) + 1
		c := CompressColumns(ops, addrs, vals, chunk)

		var s ChunkScratch
		pos := 0
		for i := 0; i < c.Chunks(); i++ {
			dops, daddrs, dvals, err := c.DecodeChunk(i, &s)
			if err != nil {
				t.Fatalf("round-trip decode chunk %d: %v", i, err)
			}
			for j := range dops {
				if dops[j] != ops[pos+j] || daddrs[j] != addrs[pos+j] || dvals[j] != vals[pos+j] {
					t.Fatalf("round-trip mismatch chunk %d event %d", i, j)
				}
			}
			pos += len(dops)
		}
		if c.Chunks() == 0 {
			return
		}

		// Corrupt one byte of one column; decode must either still
		// succeed or fail with *CorruptError. Panics fail the fuzz run.
		ci := int(flip>>16) % c.Chunks()
		cols := [][]byte{c.chunks[ci].stores, c.chunks[ci].addrs, c.chunks[ci].vals}
		col := cols[int(flip>>8)%len(cols)]
		if len(col) == 0 {
			return
		}
		col[int(flip)%len(col)] ^= 1 << ((flip >> 24) % 8)
		for i := 0; i < c.Chunks(); i++ {
			if _, _, _, err := c.DecodeChunk(i, &s); err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("corrupt decode: %T not *CorruptError: %v", err, err)
				}
			}
		}
	})
}

// TestDecodeChunkAddrsMatchesFullDecode pins the address-only decode
// path to the full decode: same addresses, and the store popcount
// equals the expanded op column's store count, chunk by chunk.
func TestDecodeChunkAddrsMatchesFullDecode(t *testing.T) {
	ops, addrs, vals := synthColumns(10_000, 99)
	c := CompressColumns(ops, addrs, vals, 777) // prime: exercises a partial tail chunk
	var full, only ChunkScratch
	for i := 0; i < c.Chunks(); i++ {
		fops, faddrs, _, err := c.DecodeChunk(i, &full)
		if err != nil {
			t.Fatalf("chunk %d: full decode: %v", i, err)
		}
		oaddrs, err := c.DecodeChunkAddrs(i, &only)
		if err != nil {
			t.Fatalf("chunk %d: addr decode: %v", i, err)
		}
		if len(oaddrs) != len(faddrs) {
			t.Fatalf("chunk %d: addr-only decoded %d addrs, full %d", i, len(oaddrs), len(faddrs))
		}
		for j := range faddrs {
			if oaddrs[j] != faddrs[j] {
				t.Fatalf("chunk %d access %d: addr-only %#x, full %#x", i, j, oaddrs[j], faddrs[j])
			}
		}
		stores := 0
		for _, op := range fops {
			if op == Store {
				stores++
			}
		}
		if got := c.ChunkStoreCount(i); got != stores {
			t.Fatalf("chunk %d: ChunkStoreCount = %d, op column has %d stores", i, got, stores)
		}
	}
}

// TestDecodeChunkAddrsCorrupt verifies the addr-only decode rejects a
// truncated address column with a located *CorruptError, like the full
// decode does.
func TestDecodeChunkAddrsCorrupt(t *testing.T) {
	ops, addrs, vals := synthColumns(512, 7)
	c := CompressColumns(ops, addrs, vals, 256)
	c.chunks[0].addrs = c.chunks[0].addrs[:len(c.chunks[0].addrs)-1]
	var s ChunkScratch
	_, err := c.DecodeChunkAddrs(0, &s)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("truncated addr column: got %v, want *CorruptError", err)
	}
}
