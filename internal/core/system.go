// Package core composes the paper's cache hierarchy: a conventional
// write-back main cache (direct mapped or set associative), optionally
// augmented with a Frequent Value Cache (the paper's contribution) or
// with a victim cache (the baseline it is compared against), in front
// of an architectural memory.
//
// The simulator is trace driven: feed it trace events (it implements
// trace.Sink) or call Access directly. Because every event carries the
// accessed value, the system maintains an exact replica of
// architectural memory, which is what lets the FVC encode and verify
// frequent-value footprints.
package core

import (
	"fmt"

	"fvcache/internal/cache"
	"fvcache/internal/freqval"
	"fvcache/internal/fvc"
	"fvcache/internal/memsim"
	"fvcache/internal/trace"
)

// Config selects a hierarchy.
type Config struct {
	// Main is the main cache geometry (the paper's DMC when Assoc==1).
	Main cache.Params

	// FVC, when non-nil, attaches a frequent value cache. Its
	// LineBytes must equal Main.LineBytes.
	FVC *fvc.Params
	// FrequentValues is the frequent value table contents, most
	// frequent first; required when FVC is set. At most
	// fvc.MaxValues(FVC.Bits) values are used.
	FrequentValues []uint32

	// VictimEntries, when positive, attaches a fully-associative
	// victim cache of that many lines. Mutually exclusive with FVC.
	VictimEntries int

	// L2, when non-nil, places a unified write-back second-level cache
	// between the L1 level (main cache + FVC/VC) and memory. Its line
	// size must equal Main.LineBytes. TrafficWords then counts only
	// off-chip (L2<->memory) transfers, quantifying how the FVC's
	// fill/writeback reduction propagates down the hierarchy.
	L2 *cache.Params

	// NoWriteMissAllocate disables the paper's write-miss exception
	// (allocating a frequent-value store directly into the FVC).
	// Ablation knob; zero value is the paper's design.
	NoWriteMissAllocate bool
	// OnlineFVTEvery, when positive, replaces the static profiled FVT
	// with online identification: a Space-Saving sketch observes every
	// accessed value, and every OnlineFVTEvery accesses the FVT is
	// re-derived from the sketch's current top values. Replacing the
	// table flushes the FVC (its codes are meaningless under a new
	// table), writing back dirty frequent words. This implements the
	// paper's "fast method for identifying the frequently accessed
	// values" as a hardware mechanism instead of a profiling pass;
	// FrequentValues then only seeds the initial table and may be
	// empty.
	OnlineFVTEvery uint64
	// SkipEmptyFootprints skips inserting an evicted line's footprint
	// into the FVC when none of its words is frequent. Ablation knob;
	// zero value is the paper's design (always insert).
	SkipEmptyFootprints bool
	// VerifyValues makes every FVC read hit assert that the decoded
	// value equals architectural memory, and every load event assert
	// that its value matches the replica. Used by tests; costs a map
	// lookup per access.
	VerifyValues bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Main.Validate(); err != nil {
		return err
	}
	if c.FVC != nil {
		if c.VictimEntries > 0 {
			return fmt.Errorf("core: FVC and victim cache are mutually exclusive")
		}
		if err := c.FVC.Validate(); err != nil {
			return err
		}
		if c.FVC.LineBytes != c.Main.LineBytes {
			return fmt.Errorf("core: FVC line size %d must match main cache line size %d",
				c.FVC.LineBytes, c.Main.LineBytes)
		}
		if len(c.FrequentValues) == 0 && c.OnlineFVTEvery == 0 {
			return fmt.Errorf("core: FVC requires FrequentValues (or OnlineFVTEvery for online identification)")
		}
	}
	if c.VictimEntries < 0 {
		return fmt.Errorf("core: VictimEntries must be >= 0, got %d", c.VictimEntries)
	}
	if c.L2 != nil {
		if err := c.L2.Validate(); err != nil {
			return err
		}
		if c.L2.LineBytes != c.Main.LineBytes {
			return fmt.Errorf("core: L2 line size %d must match main cache line size %d",
				c.L2.LineBytes, c.Main.LineBytes)
		}
		if c.L2.SizeBytes < c.Main.SizeBytes {
			return fmt.Errorf("core: L2 (%d bytes) must be at least as large as the main cache (%d bytes)",
				c.L2.SizeBytes, c.Main.SizeBytes)
		}
	}
	return nil
}

// HitSource identifies which structure satisfied an access.
type HitSource uint8

const (
	// Miss means no structure satisfied the access.
	Miss HitSource = iota
	// MainHit is a hit in the main cache.
	MainHit
	// FVCHit is a hit in the frequent value cache.
	FVCHit
	// VictimHit is a hit in the victim cache.
	VictimHit
)

// String names the source.
func (h HitSource) String() string {
	switch h {
	case Miss:
		return "miss"
	case MainHit:
		return "main"
	case FVCHit:
		return "fvc"
	case VictimHit:
		return "victim"
	}
	return "unknown"
}

// Stats accumulates hierarchy statistics.
type Stats struct {
	Loads  uint64
	Stores uint64

	MainHits   uint64
	FVCHits    uint64
	VictimHits uint64
	Misses     uint64

	// LineFetches counts full lines fetched from memory.
	LineFetches uint64
	// LineWritebacks counts full dirty lines written back from the
	// main or victim cache.
	LineWritebacks uint64
	// FVCWritebackWords counts frequent-value words written back from
	// dirty FVC entries (partial-line writebacks).
	FVCWritebackWords uint64
	// WriteMissAllocs counts stores allocated directly into the FVC.
	WriteMissAllocs uint64
	// TrafficWords is total words moved off chip: between the L1
	// level and memory, or — when an L2 is configured — between the L2
	// and memory (fetches + all writebacks at that boundary).
	TrafficWords uint64
	// FVTUpdates counts online frequent-value-table replacements.
	FVTUpdates uint64

	// L2Hits and L2Misses count L2 probes from L1-level fetches and
	// writebacks (zero without an L2).
	L2Hits   uint64
	L2Misses uint64
	// L2Writebacks counts dirty L2 evictions (off-chip line writes).
	L2Writebacks uint64
}

// Accesses returns loads + stores.
func (s Stats) Accesses() uint64 { return s.Loads + s.Stores }

// Minus returns the difference s - o, field by field. Use it to
// exclude a warmup prefix: snapshot stats at the warmup boundary and
// subtract from the final stats.
func (s Stats) Minus(o Stats) Stats {
	return Stats{
		Loads:             s.Loads - o.Loads,
		Stores:            s.Stores - o.Stores,
		MainHits:          s.MainHits - o.MainHits,
		FVCHits:           s.FVCHits - o.FVCHits,
		VictimHits:        s.VictimHits - o.VictimHits,
		Misses:            s.Misses - o.Misses,
		LineFetches:       s.LineFetches - o.LineFetches,
		LineWritebacks:    s.LineWritebacks - o.LineWritebacks,
		FVCWritebackWords: s.FVCWritebackWords - o.FVCWritebackWords,
		WriteMissAllocs:   s.WriteMissAllocs - o.WriteMissAllocs,
		TrafficWords:      s.TrafficWords - o.TrafficWords,
		FVTUpdates:        s.FVTUpdates - o.FVTUpdates,
		L2Hits:            s.L2Hits - o.L2Hits,
		L2Misses:          s.L2Misses - o.L2Misses,
		L2Writebacks:      s.L2Writebacks - o.L2Writebacks,
	}
}

// Plus returns the sum s + o, field by field (the inverse of Minus).
func (s Stats) Plus(o Stats) Stats {
	return Stats{
		Loads:             s.Loads + o.Loads,
		Stores:            s.Stores + o.Stores,
		MainHits:          s.MainHits + o.MainHits,
		FVCHits:           s.FVCHits + o.FVCHits,
		VictimHits:        s.VictimHits + o.VictimHits,
		Misses:            s.Misses + o.Misses,
		LineFetches:       s.LineFetches + o.LineFetches,
		LineWritebacks:    s.LineWritebacks + o.LineWritebacks,
		FVCWritebackWords: s.FVCWritebackWords + o.FVCWritebackWords,
		WriteMissAllocs:   s.WriteMissAllocs + o.WriteMissAllocs,
		TrafficWords:      s.TrafficWords + o.TrafficWords,
		FVTUpdates:        s.FVTUpdates + o.FVTUpdates,
		L2Hits:            s.L2Hits + o.L2Hits,
		L2Misses:          s.L2Misses + o.L2Misses,
		L2Writebacks:      s.L2Writebacks + o.L2Writebacks,
	}
}

// Hits returns the total hits across structures.
func (s Stats) Hits() uint64 { return s.MainHits + s.FVCHits + s.VictimHits }

// MissRate returns misses/accesses in [0,1]; 0 for an empty run.
func (s Stats) MissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses())
}

// TrafficBytes returns the off-chip traffic in bytes.
func (s Stats) TrafficBytes() uint64 { return s.TrafficWords * trace.WordBytes }

// System is the simulated hierarchy.
type System struct {
	cfg  Config
	main *cache.Cache
	fv   *fvc.FVC
	vc   *cache.VictimCache
	l2   *cache.Cache
	mem  *memsim.Memory

	// Online FVT identification state (nil/zero when disabled).
	sketch   *freqval.SpaceSaving
	sinceFVT uint64

	stats Stats
	wpl   int

	// dm is the main cache's inlinable direct-mapped probe view; dmOK
	// selects it over the generic Touch on the per-access fast path.
	dm   cache.DMView
	dmOK bool

	// footprint and fpCodes are the reusable scratch buffers
	// handleMainVictim encodes evicted lines through; owning them here
	// keeps the per-eviction path allocation free.
	footprint []uint32
	fpCodes   []uint8

	// extMem marks a System whose architectural replica is a shared
	// memory image owned by a SystemSet. The set's driver applies each
	// store to the image exactly once, after every member system has
	// processed the event, so the System itself must not advance it
	// (and every member observes pre-store memory during its protocol
	// step, exactly as a privately-owned replica would).
	extMem bool
}

// New builds a System from cfg.
func New(cfg Config) (*System, error) { return newSystem(cfg, nil) }

// newSystem wires a System to the given shared memory image; nil means
// the System owns a private replica (the New path).
func newSystem(cfg Config, shared *memsim.Memory) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mem := shared
	if mem == nil {
		mem = memsim.NewMemory()
	}
	s := &System{
		cfg:       cfg,
		main:      cache.New(cfg.Main),
		mem:       mem,
		extMem:    shared != nil,
		wpl:       cfg.Main.WordsPerLine(),
		footprint: make([]uint32, cfg.Main.WordsPerLine()),
		fpCodes:   make([]uint8, cfg.Main.WordsPerLine()),
	}
	s.dm, s.dmOK = s.main.DM()
	if cfg.FVC != nil {
		vals := cfg.FrequentValues
		if max := fvc.MaxValues(cfg.FVC.Bits); len(vals) > max {
			vals = vals[:max]
		}
		tbl, err := fvc.NewTable(cfg.FVC.Bits, vals)
		if err != nil {
			return nil, err
		}
		f, err := fvc.New(*cfg.FVC, tbl)
		if err != nil {
			return nil, err
		}
		s.fv = f
	}
	if cfg.VictimEntries > 0 {
		s.vc = cache.NewVictimCache(cfg.VictimEntries, cfg.Main.LineBytes)
	}
	if cfg.L2 != nil {
		s.l2 = cache.New(*cfg.L2)
	}
	if cfg.FVC != nil && cfg.OnlineFVTEvery > 0 {
		// Track several times more candidates than the table holds so
		// rising values are already counted when they enter the top.
		s.sketch = freqval.NewSpaceSaving(8 * fvc.MaxValues(cfg.FVC.Bits))
	}
	return s, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Stats returns a copy of the accumulated statistics.
func (s *System) Stats() Stats { return s.stats }

// Config returns the configuration.
func (s *System) Config() Config { return s.cfg }

// Main returns the main cache (for the invariant audit and tests).
func (s *System) Main() *cache.Cache { return s.main }

// FVC returns the attached frequent value cache, or nil.
func (s *System) FVC() *fvc.FVC { return s.fv }

// Victim returns the attached victim cache, or nil.
func (s *System) Victim() *cache.VictimCache { return s.vc }

// L2 returns the attached second-level cache, or nil.
func (s *System) L2() *cache.Cache { return s.l2 }

// MemWord reads the architectural memory replica (for tests).
func (s *System) MemWord(addr uint32) uint32 { return s.mem.LoadWord(addr) }

// Emit implements trace.Sink: loads and stores drive the hierarchy,
// other events are ignored.
func (s *System) Emit(e trace.Event) {
	if !e.Op.IsAccess() {
		return
	}
	s.Access(e.Op, e.Addr, e.Value)
}

// ReplayColumns drives the hierarchy from columnar event buffers (the
// shape trace.Recording stores), skipping non-access events. It is
// semantically identical to calling Access per access event, but the
// common replay shape — direct-mapped main cache, no online sketch, no
// value verification — runs a specialized loop: the inlinable
// direct-mapped probe and the loop-invariant configuration tests stay
// in registers, and the load/store/hit tallies accumulate in locals
// that merge into Stats once at the end.
func (s *System) ReplayColumns(ops []trace.Op, addrs, values []uint32) {
	if len(addrs) != len(ops) || len(values) != len(ops) {
		panic("core: ReplayColumns column length mismatch")
	}
	if !s.dmOK || s.sketch != nil || s.cfg.VerifyValues || s.extMem {
		for i, op := range ops {
			if op.IsAccess() {
				s.Access(op, addrs[i], values[i])
			}
		}
		return
	}
	dm := s.dm
	mem := s.mem
	var loads, stores, mainHits, misses uint64
	for i, op := range ops {
		if !op.IsAccess() {
			continue
		}
		store := op == trace.Store
		addr, value := addrs[i], values[i]
		if dm.Touch(addr, store) {
			mainHits++
		} else {
			switch s.access(store, addr, value) {
			case MainHit:
				mainHits++
			case FVCHit:
				s.stats.FVCHits++
			case VictimHit:
				s.stats.VictimHits++
			default:
				misses++
			}
		}
		if store {
			mem.StoreWord(addr, value)
			stores++
		} else {
			loads++
		}
	}
	s.stats.Loads += loads
	s.stats.Stores += stores
	s.stats.MainHits += mainHits
	s.stats.Misses += misses
}

// Access simulates one word access and returns the structure that
// satisfied it (or Miss).
func (s *System) Access(op trace.Op, addr, value uint32) HitSource {
	store := op == trace.Store
	if store {
		s.stats.Stores++
	} else {
		s.stats.Loads++
		if s.cfg.VerifyValues {
			if got := s.mem.LoadWord(addr); got != value {
				panic(&VerificationError{Where: "load-event", Addr: addr, Want: value, Got: got})
			}
		}
	}

	if s.sketch != nil {
		s.sketch.Observe(value)
		s.sinceFVT++
		if s.sinceFVT >= s.cfg.OnlineFVTEvery {
			s.sinceFVT = 0
			s.updateFVT()
		}
	}

	src := s.access(store, addr, value)

	// Update the architectural replica after the protocol step so that
	// FVC verification and footprints observe pre-store values
	// consistently; the replica must reflect the store before the next
	// access. A shared image (extMem) is advanced once by the
	// SystemSet driver instead, after every member processed the event.
	if store && !s.extMem {
		s.mem.StoreWord(addr, value)
	}

	switch src {
	case MainHit:
		s.stats.MainHits++
	case FVCHit:
		s.stats.FVCHits++
	case VictimHit:
		s.stats.VictimHits++
	default:
		s.stats.Misses++
	}
	return src
}

func (s *System) access(store bool, addr, value uint32) HitSource {
	// Main cache and FVC/VC are probed in parallel; the exclusive
	// contract guarantees at most one hits. The direct-mapped view's
	// Touch inlines here, which the generic Touch cannot.
	if s.dmOK {
		if s.dm.Touch(addr, store) {
			return MainHit
		}
	} else if s.main.Touch(addr, store) {
		return MainHit
	}
	if s.fv != nil {
		return s.accessWithFVC(store, addr, value)
	}
	if s.vc != nil {
		return s.accessWithVictim(store, addr)
	}
	s.fetchInto(addr, store)
	return Miss
}

// accessWithFVC implements Section 3's protocol after a main-cache miss.
func (s *System) accessWithFVC(store bool, addr, value uint32) HitSource {
	p := s.fv.Lookup(addr)
	if p.TagMatch {
		if !store && p.WordFrequent {
			if s.cfg.VerifyValues {
				if got := s.mem.LoadWord(addr); got != p.Value {
					panic(&VerificationError{Where: "fvc-decode", Addr: addr, Want: got, Got: p.Value})
				}
			}
			return FVCHit
		}
		if store && s.fv.WriteWord(addr, value) {
			return FVCHit
		}
		// Tag match but the word is infrequent (load) or the value is
		// infrequent (store): bring the real line into the main cache.
		// The FVC's frequent words are the latest values; the replica
		// already reflects them, so the overlay is traffic accounting
		// plus dirtiness transfer.
		entry := s.fv.InvalidateFast(addr)
		s.fetchIntoWithDirty(addr, store, entry.Valid && entry.Dirty)
		return Miss
	}
	// Miss in both structures.
	if store && !s.cfg.NoWriteMissAllocate {
		if s.fv.Table().Contains(value) {
			displaced := s.fv.InstallWriteMissFast(addr, value)
			s.writebackFVCEntry(displaced)
			s.stats.WriteMissAllocs++
			// The store is satisfied by the FVC without a line fetch:
			// per the paper this "eliminates or delays the cache miss"
			// (a later read of a word marked infrequent will miss), so
			// it is accounted as an FVC hit.
			return FVCHit
		}
	}
	s.fetchInto(addr, store)
	return Miss
}

// accessWithVictim implements Jouppi's victim cache after a main miss.
func (s *System) accessWithVictim(store bool, addr uint32) HitSource {
	if ln, ok := s.vc.Probe(addr); ok {
		// Swap: the victim line moves into the main cache and the
		// displaced main line takes its place in the victim cache.
		v := s.main.Insert(addr, ln.Dirty || store)
		if v.Valid {
			disp := s.vc.Insert(v.Tag, v.Dirty)
			s.writebackLine(disp)
		}
		return VictimHit
	}
	s.fetchLine(addr)
	v := s.main.Insert(addr, store)
	if v.Valid {
		disp := s.vc.Insert(v.Tag, v.Dirty)
		s.writebackLine(disp)
	}
	return Miss
}

// fetchInto fetches addr's line from memory into the main cache.
func (s *System) fetchInto(addr uint32, store bool) {
	s.fetchIntoWithDirty(addr, store, false)
}

// fetchIntoWithDirty fetches addr's line, marking it dirty when the
// access is a store or when merged FVC words were dirty.
func (s *System) fetchIntoWithDirty(addr uint32, store, mergedDirty bool) {
	s.fetchLine(addr)
	v := s.main.Insert(addr, store || mergedDirty)
	s.handleMainVictim(v)
}

// fetchLine brings addr's line to the L1 level: from the L2 when
// present and hit, otherwise from memory (off-chip traffic).
func (s *System) fetchLine(addr uint32) {
	s.stats.LineFetches++
	if s.l2 == nil {
		s.stats.TrafficWords += uint64(s.wpl)
		return
	}
	if s.l2.Touch(addr, false) {
		s.stats.L2Hits++
		return
	}
	s.stats.L2Misses++
	s.stats.TrafficWords += uint64(s.wpl)
	s.l2Victim(s.l2.Insert(addr, false))
}

// writebackToBelow sends a dirty full line below the L1 level: into
// the L2 when present (write-allocate without fetch, since the whole
// line is being written), else straight to memory.
func (s *System) writebackToBelow(lineTag uint32) {
	if s.l2 == nil {
		s.stats.TrafficWords += uint64(s.wpl)
		return
	}
	addr := s.main.BaseAddr(lineTag)
	if s.l2.Touch(addr, true) {
		s.stats.L2Hits++
		return
	}
	s.stats.L2Misses++
	s.l2Victim(s.l2.Insert(addr, true))
}

// l2Victim accounts for a line displaced from the L2.
func (s *System) l2Victim(v cache.Victim) {
	if v.Valid && v.Dirty {
		s.stats.L2Writebacks++
		s.stats.TrafficWords += uint64(s.wpl)
	}
}

// handleMainVictim writes back a dirty evicted line and, when an FVC is
// attached, inserts the line's frequent-value footprint.
func (s *System) handleMainVictim(v cache.Victim) {
	if !v.Valid {
		return
	}
	if v.Dirty {
		s.stats.LineWritebacks++
		s.writebackToBelow(v.Tag)
	}
	if s.fv == nil {
		return
	}
	base := s.main.BaseAddr(v.Tag)
	words := s.footprint
	s.mem.LoadLine(base, words)
	any := s.fv.EncodeWords(words, s.fpCodes)
	if s.cfg.SkipEmptyFootprints && !any {
		return
	}
	displaced := s.fv.InstallCodes(s.fv.LineAddr(base), s.fpCodes)
	s.writebackFVCEntry(displaced)
}

// writebackFVCEntry accounts for the partial writeback of a displaced
// dirty FVC entry (only its frequent words hold data). With an L2, the
// words merge into the L2's copy of the line; without one they go off
// chip.
func (s *System) writebackFVCEntry(e fvc.Displaced) {
	if !e.Valid || !e.Dirty {
		return
	}
	words := uint64(e.FreqWords)
	s.stats.FVCWritebackWords += words
	if s.l2 == nil {
		s.stats.TrafficWords += words
		return
	}
	addr := e.Tag << uint32(log2w(s.cfg.Main.LineBytes))
	if s.l2.Touch(addr, true) {
		s.stats.L2Hits++
		return
	}
	s.stats.L2Misses++
	s.l2Victim(s.l2.Insert(addr, true))
}

// log2w is a tiny log2 for power-of-two line sizes.
func log2w(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// writebackLine accounts for a dirty full-line writeback (victim cache
// displacement).
func (s *System) writebackLine(v cache.Victim) {
	if v.Valid && v.Dirty {
		s.stats.LineWritebacks++
		s.writebackToBelow(v.Tag)
	}
}

// updateFVT re-derives the frequent value table from the sketch and,
// if the value set changed, installs it (flushing the FVC).
func (s *System) updateFVT() {
	want := s.sketch.TopValues(fvc.MaxValues(s.cfg.FVC.Bits))
	cur := s.fv.Table().Values()
	if equalSets(want, cur) {
		return
	}
	tbl, err := fvc.NewTable(s.cfg.FVC.Bits, want)
	if err != nil {
		// Sketch top values are distinct by construction; a failure
		// here is a programming error.
		panic(err)
	}
	dirtyWords, err := s.fv.ReplaceTable(tbl)
	if err != nil {
		panic(err)
	}
	s.stats.FVTUpdates++
	s.stats.FVCWritebackWords += uint64(dirtyWords)
	s.stats.TrafficWords += uint64(dirtyWords)
}

func equalSets(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[uint32]struct{}, len(a))
	for _, v := range a {
		set[v] = struct{}{}
	}
	for _, v := range b {
		if _, ok := set[v]; !ok {
			return false
		}
	}
	return true
}

// CachedInBoth reports whether any word of addr's line is readable from
// both the main cache and the FVC — the exclusivity invariant says this
// must never be true. Exposed for property tests.
func (s *System) CachedInBoth(addr uint32) bool {
	if s.fv == nil {
		return false
	}
	return s.main.Lookup(addr) && s.fv.Lookup(addr).TagMatch
}
