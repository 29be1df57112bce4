package core

import (
	"fvcache/internal/cache"
	"fvcache/internal/memsim"
	"fvcache/internal/obs"
	"fvcache/internal/trace"
)

// SystemSet drives K independent hierarchies through one access stream
// in lockstep — the fused fast path of the batched replay engine. A
// configuration sweep builds one set from its config fan and replays
// the workload's recording exactly once: the event columns are decoded
// once, the architectural memory image is reconstructed once (stores
// applied once, read by every member), and only the per-configuration
// work — cache probes and miss handling — is paid K times.
//
// Equivalence with K separately replayed Systems is exact. Members
// never write the shared image; during an event every member's
// protocol step (including eviction-footprint reads and
// value-verification loads) observes pre-store memory, and the set
// applies the store once after the last member processed the event.
// Since a privately-owned replica is a pure function of the store
// prefix, the shared image equals each member's would-be private
// replica at every event boundary, so per-member Stats are
// bit-identical to the per-config replay path.
//
// A SystemSet is driven from a single goroutine (its members and the
// shared image are not internally synchronized); concurrent sweeps
// each build their own set over the same immutable recording.
type SystemSet struct {
	systems []*System
	groups  []dmGroup // direct-mapped members, grouped by geometry
	slow    []*System // members outside the fused probe shape
	mem     *memsim.Memory
}

// dmGroup fuses the direct-mapped probes of members sharing one index
// function. Tag state is transposed into a packed struct-of-arrays
// probe filter — tags[set*K + member] = lineTag<<2 | dirty<<1 | valid —
// so one event probes K contiguous words instead of K scattered Line
// structs in K separate arrays. The filter mirrors the members'
// authoritative cache.Line state: it is rebuilt from the caches when a
// replay chunk starts, resynced per-line around outlined miss handling
// (the only path that can replace a line), and its dirty bits are
// pushed back when the chunk ends, so between ReplayColumns calls the
// caches are exact and audits, sampling and Stats see nothing unusual.
//
// Touch only ever flips a line's dirty bit, so filter hits run without
// touching the caches at all; with every member of a sweep sharing one
// main-cache geometry, the per-event probe cost collapses from K cache
// lines to K/16 — the difference between the fused pass re-streaming
// every member's tag array and scanning one packed row.
type dmGroup struct {
	shift, mask uint32
	tags        []uint32 // (mask+1) * len(members) packed entries
	members     []groupMember
	hits        []uint64 // per-member main-hit tally for the current chunk
	misses      []uint64 // per-member miss tally for the current chunk
	resyncs     uint64   // filter resyncs this chunk, flushed to obs at chunk end
}

type groupMember struct {
	sys *System
	dm  cache.DMView
}

// NewSet builds one System per configuration, all sharing a single
// architectural memory image.
func NewSet(cfgs []Config) (*SystemSet, error) {
	ss := &SystemSet{mem: memsim.NewMemory()}
	for _, cfg := range cfgs {
		s, err := newSystem(cfg, ss.mem)
		if err != nil {
			return nil, err
		}
		ss.systems = append(ss.systems, s)
		shift, mask := s.dm.Geometry()
		// The packed-entry encoding needs two free low bits
		// (tag = addr>>shift, word-sized lines guarantee shift >= 2).
		if !s.dmOK || s.sketch != nil || s.cfg.VerifyValues || shift < 2 {
			ss.slow = append(ss.slow, s)
			continue
		}
		gi := -1
		for i := range ss.groups {
			if ss.groups[i].shift == shift && ss.groups[i].mask == mask {
				gi = i
				break
			}
		}
		if gi < 0 {
			ss.groups = append(ss.groups, dmGroup{shift: shift, mask: mask})
			gi = len(ss.groups) - 1
		}
		g := &ss.groups[gi]
		g.members = append(g.members, groupMember{sys: s, dm: s.dm})
	}
	for i := range ss.groups {
		g := &ss.groups[i]
		g.tags = make([]uint32, int(g.mask+1)*len(g.members))
		g.hits = make([]uint64, len(g.members))
		g.misses = make([]uint64, len(g.members))
	}
	return ss, nil
}

// MustNewSet is NewSet that panics on error.
func MustNewSet(cfgs []Config) *SystemSet {
	ss, err := NewSet(cfgs)
	if err != nil {
		panic(err)
	}
	return ss
}

// Systems returns the member systems, in configuration order.
func (ss *SystemSet) Systems() []*System { return ss.systems }

// Len returns the number of member systems.
func (ss *SystemSet) Len() int { return len(ss.systems) }

// Access drives one access event through every member system, then
// advances the shared memory image. Non-access ops are ignored.
func (ss *SystemSet) Access(op trace.Op, addr, value uint32) {
	if !op.IsAccess() {
		return
	}
	for _, s := range ss.systems {
		s.Access(op, addr, value)
	}
	if op == trace.Store {
		ss.mem.StoreWord(addr, value)
	}
}

// pull rebuilds the packed probe filter from the members' authoritative
// line state. Running it on chunk entry (rather than trusting the
// previous chunk's exit state) makes ReplayColumns self-contained:
// callers may interleave Access calls or any direct member use between
// chunks without desyncing the filter.
func (g *dmGroup) pull() {
	k := len(g.members)
	for j := range g.members {
		dm := g.members[j].dm
		for idx := uint32(0); idx <= g.mask; idx++ {
			ln := dm.LineAt(idx)
			e := uint32(0)
			if ln.Valid {
				e = ln.Tag<<2 | 1
				if ln.Dirty {
					e |= 2
				}
			}
			g.tags[int(idx)*k+j] = e
		}
	}
}

// push writes the filter's dirty bits back to the members' lines. Tags
// and validity are already exact (miss handling resyncs them in line),
// so dirty bits — the only state a probe hit mutates — are all that
// can be ahead of the caches.
func (g *dmGroup) push() {
	k := len(g.members)
	for j := range g.members {
		dm := g.members[j].dm
		for idx := uint32(0); idx <= g.mask; idx++ {
			if e := g.tags[int(idx)*k+j]; e&1 != 0 {
				dm.LineAt(idx).Dirty = e&2 != 0
			}
		}
	}
}

// missAt handles member j's probe-filter miss at set index idx: sync
// the filter's dirty bit into the authoritative line, run the outlined
// miss path (which may hit the FVC/victim cache, insert into the main
// cache, or leave it untouched), then re-encode whatever line now
// occupies the set. Outlined so the fused loop body stays small enough
// to keep its locals in registers.
func (g *dmGroup) missAt(j int, idx uint32, store bool, addr, value uint32) {
	// A plain field increment: the per-event fused loop stays free of
	// atomics; the tally reaches the obs counter once per chunk.
	g.resyncs++
	m := &g.members[j]
	ln := m.dm.LineAt(idx)
	ei := int(idx)*len(g.members) + j
	if e := g.tags[ei]; e&1 != 0 {
		ln.Dirty = e&2 != 0
	}
	switch m.sys.access(store, addr, value) {
	case MainHit:
		g.hits[j]++
	case FVCHit:
		m.sys.stats.FVCHits++
	case VictimHit:
		m.sys.stats.VictimHits++
	default:
		g.misses[j]++
	}
	e := uint32(0)
	if ln.Valid {
		e = ln.Tag<<2 | 1
		if ln.Dirty {
			e |= 2
		}
	}
	g.tags[ei] = e
}

// ReplayColumns drives every access event of the columnar buffers
// through all member systems in lockstep. It is semantically identical
// to calling Access per event, but runs the transposed probe filter
// across each geometry group: the event is decoded once, the group's
// set index is computed once, the K packed filter entries are scanned
// contiguously (miss handling stays outlined), the shared image
// advances once per store, and load/store/hit tallies accumulate in
// locals that merge into each member's Stats when the call returns —
// so callers can chunk the columns at hook boundaries and observe
// exact per-member Stats and cache state between chunks, with zero
// steady-state allocations throughout.
func (ss *SystemSet) ReplayColumns(ops []trace.Op, addrs, values []uint32) {
	if len(addrs) != len(ops) || len(values) != len(ops) {
		panic("core: ReplayColumns column length mismatch")
	}
	groups := ss.groups
	for gi := range groups {
		groups[gi].pull()
	}
	mem := ss.mem
	slow := ss.slow
	var loads, stores uint64
	for i, op := range ops {
		if !op.IsAccess() {
			continue
		}
		store := op == trace.Store
		addr, value := addrs[i], values[i]
		for gi := range groups {
			g := &groups[gi]
			tag := addr >> g.shift
			k := len(g.members)
			base := int(tag&g.mask) * k
			ents := g.tags[base : base+k]
			want := tag<<2 | 1
			for j, e := range ents {
				if e&^2 == want {
					if store {
						ents[j] = e | 2
					}
					g.hits[j]++
					continue
				}
				g.missAt(j, tag&g.mask, store, addr, value)
			}
		}
		for _, s := range slow {
			s.Access(op, addr, value)
		}
		if store {
			mem.StoreWord(addr, value)
			stores++
		} else {
			loads++
		}
	}
	for gi := range groups {
		g := &groups[gi]
		for j := range g.members {
			st := &g.members[j].sys.stats
			st.Loads += loads
			st.Stores += stores
			st.MainHits += g.hits[j]
			st.Misses += g.misses[j]
			g.hits[j] = 0
			g.misses[j] = 0
		}
		g.push()
	}
	// Slow members tallied Loads/Stores inside Access itself.

	// Telemetry, once per chunk (never per event): a handful of atomic
	// adds that keep the fused loop allocation-free and branch-light.
	if obs.Enabled {
		obs.BatchChunks.Inc()
		obs.BatchEvents.Add(uint64(len(ops)))
		obs.ProbeRebuilds.Add(uint64(len(groups)))
		var resyncs uint64
		for gi := range groups {
			resyncs += groups[gi].resyncs
			groups[gi].resyncs = 0
		}
		obs.ProbeResyncs.Add(resyncs)
	}
}
