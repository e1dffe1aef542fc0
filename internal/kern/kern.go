// Package kern simulates the Linux kernel subsystems the paper studies:
// demand paging, the page-fault handler (including Migrate-on-next-touch),
// SIGSEGV delivery to user handlers, TLB shootdowns, the migration system
// calls move_pages (both the quadratic pre-2.6.29 implementation and the
// paper's linear fix) and migrate_pages, plus madvise/mprotect/mbind/
// set_mempolicy. Locking (mmap_sem, per-2MB PTE-page locks, a global LRU
// lock, per-node zone locks) is modelled with DES resources so contention
// emerges from execution rather than from formulas.
package kern

import (
	"fmt"
	"slices"

	"numamig/internal/mem"
	"numamig/internal/migrate"
	"numamig/internal/model"
	"numamig/internal/placement"
	"numamig/internal/sim"
	"numamig/internal/telemetry"
	"numamig/internal/tenancy"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Accounting categories used in cost breakdowns (Figures 6a/6b).
const (
	CatMovePagesCopy = "move_pages copy"
	CatMovePagesCtl  = "move_pages control"
	CatNTCopy        = "nt copy page"
	CatNTCtl         = "nt fault+migration control"
	CatMadvise       = "madvise"
	CatMprotectMark  = "mprotect mark"
	CatMprotectRest  = "mprotect restore"
	CatFaultSignal   = "page-fault+signal"
	CatNumaScan      = "numa scan"
	CatNumaHint      = "numa hint fault"
	CatNumaCopy      = "numa copy page"
	CatKswapd        = "kswapd scan"
	CatDemotionCopy  = "demotion copy page"
)

// Stats aggregates kernel-wide event counters.
type Stats struct {
	Faults         uint64 // page faults taken
	MinorFaults    uint64 // permission fixups
	DemandAllocs   uint64 // first-touch allocations
	NTMigrations   uint64 // pages migrated by kernel next-touch
	NTLocalSkips   uint64 // next-touch faults already local (no copy)
	MovePagesCalls uint64
	MovePagesPages uint64 // pages actually migrated by move_pages
	MigratePages   uint64 // pages migrated by migrate_pages
	Sigsegvs       uint64
	TLBShootdowns  uint64
	Syscalls       uint64
	LocalBytes     float64 // application bytes served from local node
	RemoteBytes    float64 // application bytes served from remote nodes

	// Automatic NUMA balancing (internal/autonuma).
	NumaPtesScanned   uint64 // PTEs examined by the scanner daemon
	NumaPtesArmed     uint64 // PTEs armed with the hinting mark
	NumaHintFaults    uint64 // hinting faults taken
	NumaPagesPromoted uint64 // pages migrated by the balancer

	// Memory pressure (watermarks + demotion daemon).
	KswapdWakeups     uint64 // daemon wake-ups that found pressure
	KswapdPtesScanned uint64 // PTEs examined by the cold-page scan
	PagesAged         uint64 // accessed bits cleared by the scan
	PagesDemoted      uint64 // pages demoted off pressured nodes
	HugeFallbacks     uint64 // huge faults served with base pages (exhaustion)

	// Memory tiering (promotion/demotion interplay; kswapd.go).
	PagesDemotedCold      uint64 // the subset of PagesDemoted classified cold (far tier)
	KswapdProactiveRuns   uint64 // trickle passes between the low and high watermarks
	KswapdHysteresisSkips uint64 // pages skipped: promoted within the hysteresis window
	KswapdMaskSkips       uint64 // pages skipped: every demotion target outside the strict-bind nodemask
	PromoteDemoteFlips    uint64 // pages demoted within FlipWindowPeriods of their promotion

	// Explicit slow-memory tier (CXL; numahint.go + the tier map in
	// model.Params).
	PromoteRateLimited uint64 // slow-tier promotions dropped by the token bucket
}

// Kernel is the simulated operating system instance for one machine.
type Kernel struct {
	Eng  *sim.Engine
	M    *topology.Machine
	Phys *mem.Phys
	P    model.Params
	Net  *sim.Fluid

	// Placer owns every node-selection decision: policy resolution,
	// watermark-aware allocation fallback, demotion/replica targets.
	Placer *placement.Placer

	// Fluid links modelling the memory system.
	KernEng  []*sim.Link // per-core kernel copy engine
	UserEng  []*sim.Link // per-core user-side memory pipe
	NodeCtrl []*sim.Link // per-node memory controller
	HT       []*sim.Link // per topology link
	migChan  map[[3]int32]*sim.Link
	// paths memoizes the fluid paths of migPath and userPath, which
	// depend only on their arguments and the fixed topology; at most
	// maxPaths entries.
	paths map[pathKey][]*sim.Link

	// Global kernel locks.
	migLock *sim.Resource // serialized migration setup (pagevec drain etc.)
	lruLock *sim.Resource // global LRU lock

	// The shared migration engines (internal/migrate): the only place
	// pages physically move. One per move_pages generation; both run on
	// the same locks and channels so contention is shared.
	migPatched   *migrate.Engine
	migUnpatched *migrate.Engine

	// Memory-pressure daemons (kswapd.go).
	procs    []*Process // every process, for the demotion daemons' walks
	kswapds  []*kswapd
	demotion bool
	// hub batches the periodic daemons' ticks into per-deadline group
	// events (daemonhub.go); kswapd and the AutoNUMA scanners register
	// here instead of each holding a parked proc.
	hub *DaemonHub

	// Per-node promotion token buckets (Params.PromoteRateLimitMBps):
	// only slow-tier source nodes ever consume from them.
	promoBuckets []promoBucket

	// tierLat caches each node's tier-class latency multiplier
	// (TierClassOf(TierOf(n)).Latency()), indexed by node id. Tiers are
	// fixed at construction, and the access hot paths charge this
	// multiplier on every node-group of every extent walk — two map
	// lookups per charge otherwise.
	tierLat []float64

	// bus is the machine's telemetry event bus (internal/telemetry):
	// every Stats increment with a time dimension also publishes a
	// typed event here. Unexported so the Bus accessor can satisfy
	// migrate.Env.
	bus *telemetry.Bus

	// Ten is the multi-tenant residency ledger (internal/tenancy). It is
	// always present; processes without a Tenant never touch it, so
	// single-tenant scenarios pay nothing.
	Ten *tenancy.Ledger

	Stats Stats
}

// New builds a kernel for the machine with the given parameters. backed
// selects real byte backing for frames.
func New(eng *sim.Engine, m *topology.Machine, p model.Params, backed bool) *Kernel {
	k := &Kernel{
		Eng:     eng,
		M:       m,
		Phys:    mem.NewPhys(m, backed),
		P:       p,
		Net:     sim.NewFluid(eng),
		migChan: map[[3]int32]*sim.Link{},
		paths:   map[pathKey][]*sim.Link{},
		migLock: sim.NewResource(eng, "mig_setup", 1),
		lruLock: sim.NewResource(eng, "lru_lock", 1),
	}
	for c := 0; c < m.NumCores(); c++ {
		k.KernEng = append(k.KernEng, sim.NewLink(fmt.Sprintf("kcopy%d", c), p.KernCopyRate))
		k.UserEng = append(k.UserEng, sim.NewLink(fmt.Sprintf("ucopy%d", c), p.UserCopyRate))
	}
	for n := 0; n < m.NumNodes(); n++ {
		// A slow-tier node's memory controller runs at its tier class's
		// fraction of the DRAM rate (a CXL expander behind its link), so
		// every fluid path touching the node — application accesses,
		// demotion copies in, promotion copies out — shares the reduced
		// capacity.
		bw := p.NodeCtrlBW * p.TierClassOf(p.TierOf(n)).Bandwidth()
		k.NodeCtrl = append(k.NodeCtrl, sim.NewLink(fmt.Sprintf("ctrl%d", n), bw))
	}
	for _, l := range m.Links {
		k.HT = append(k.HT, sim.NewLink(fmt.Sprintf("ht%d-%d", l.A, l.B), p.HTLinkBW))
	}
	k.bus = telemetry.NewBus(eng.Now)
	k.Ten = tenancy.NewLedger(k.bus, k.Phys.TierOf)
	k.hub = NewDaemonHub(eng)
	k.Placer = placement.New(m, k.Phys, &k.P)
	k.Placer.SetBus(k.bus)
	// placement.New installed the tier ids; freeze the per-node latency
	// multipliers now (flat machines resolve to 1.0 everywhere).
	k.tierLat = make([]float64, m.NumNodes())
	for n := range k.tierLat {
		k.tierLat[n] = p.TierClassOf(k.Phys.TierOf(topology.NodeID(n))).Latency()
	}
	k.migPatched = migrate.New(k, migrate.Patched)
	k.migUnpatched = migrate.New(k, migrate.Unpatched)
	return k
}

// Bus returns the kernel's telemetry event bus (also the migrate.Env
// hook the shared migration engines publish through).
func (k *Kernel) Bus() *telemetry.Bus { return k.bus }

// Hub returns the kernel's daemon hub, where periodic kernel threads
// (kswapd, AutoNUMA scanners) register their batched ticks.
func (k *Kernel) Hub() *DaemonHub { return k.hub }

// PromoGeneration returns the current kswapd scan-period generation:
// virtual time quantized by KswapdPeriod, offset so a valid generation
// is never 0 (0 in PTE.PromoGen means "never promoted"). The promotion
// paths stamp it into the pages they move; the demotion scan compares
// it against the hysteresis and flip windows.
func (k *Kernel) PromoGeneration() uint32 {
	if k.P.KswapdPeriod <= 0 {
		return 1
	}
	return uint32(k.Eng.Now()/k.P.KswapdPeriod) + 1
}

// Migrator returns the shared migration engine for a strategy.
func (k *Kernel) Migrator(s migrate.Strategy) *migrate.Engine {
	if s == migrate.Unpatched {
		return k.migUnpatched
	}
	return k.migPatched
}

// ---- migrate.Env implementation ----
//
// The kernel is the engine's environment: it supplies the cost model,
// the physical allocator, the global migration/LRU locks, and the
// fluid-network migration channels.

// Params returns the calibrated cost model.
func (k *Kernel) Params() *model.Params { return &k.P }

// AllocFrame allocates a frame on target through the placement layer,
// which falls back along the target's zonelist (skipping pressured
// nodes first) when the target cannot take the page.
func (k *Kernel) AllocFrame(target topology.NodeID) *mem.Frame {
	f := k.Placer.AllocPage(target)
	if f == nil {
		panic("kern: machine out of memory")
	}
	return f
}

// FreeFrame returns a frame to the physical allocator.
func (k *Kernel) FreeFrame(f *mem.Frame) { k.Phys.Free(f) }

// AllocHugeFrame reserves a 2 MiB unit (511 footprint frames plus one
// representative frame) as near target as the placement layer allows.
func (k *Kernel) AllocHugeFrame(target topology.NodeID) *mem.Frame {
	f := k.Placer.AllocHugePage(target)
	if f == nil {
		panic("kern: no node can host a huge page")
	}
	return f
}

// FreeHugeFrame releases a huge unit's representative frame and its
// 511-frame footprint.
func (k *Kernel) FreeHugeFrame(f *mem.Frame) {
	k.Phys.Free(f)
	k.Phys.ReleaseFootprint(f.Node, model.PTEChunkPages-1)
}

// NoteMigration records one migrated-in page on dst.
func (k *Kernel) NoteMigration(dst topology.NodeID) { k.Phys.NoteMigration(dst) }

// TierOf returns a node's memory tier id (0 = DRAM, > 0 = slow).
func (k *Kernel) TierOf(n topology.NodeID) int { return k.Phys.TierOf(n) }

// promoBucket is one node's promotion-rate-limit state: bytes of
// promotion budget available and the virtual time of the last refill.
type promoBucket struct {
	tokens float64
	last   sim.Time
}

// AllowSlowPromotion consumes one page of promotion budget from src's
// token bucket, mirroring Linux's numa_balancing_promote_rate_limit_MBps:
// the bucket refills at Params.PromoteRateLimitMBps of virtual time and
// caps at one KswapdPeriod's burst (at least one page). It returns true
// — without consuming anything — when the limiter is off or src is a
// fast-tier node; a false return means the caller must drop the
// promotion (counted in Stats.PromoteRateLimited) and leave the page
// for a later hinting fault to retry.
func (k *Kernel) AllowSlowPromotion(src topology.NodeID) bool {
	if k.P.PromoteRateLimitMBps <= 0 || k.Phys.TierOf(src) == 0 {
		return true
	}
	rate := k.P.PromoteRateLimitMBps * 1e6 // bytes per virtual second
	burst := rate * k.P.KswapdPeriod.Seconds()
	if burst < model.PageSize {
		burst = model.PageSize
	}
	if int(src) >= len(k.promoBuckets) {
		buckets := make([]promoBucket, k.M.NumNodes())
		for i := range buckets {
			buckets[i] = promoBucket{tokens: burst}
		}
		copy(buckets, k.promoBuckets)
		k.promoBuckets = buckets
	}
	b := &k.promoBuckets[src]
	now := k.Eng.Now()
	b.tokens += rate * (now - b.last).Seconds()
	b.last = now
	if b.tokens > burst {
		b.tokens = burst
	}
	if b.tokens < model.PageSize {
		k.Stats.PromoteRateLimited++
		k.bus.Publish(telemetry.Event{
			Topic: telemetry.TopicRateLimitDrop,
			Node:  src, Dst: telemetry.NoNode, Pages: 1,
		})
		return false
	}
	b.tokens -= model.PageSize
	return true
}

// MigLock returns the global serialized migration-setup lock.
func (k *Kernel) MigLock() *sim.Resource { return k.migLock }

// LRULock returns the global LRU lock.
func (k *Kernel) LRULock() *sim.Resource { return k.lruLock }

// Copy transfers bytes through the kernel page-migration channel.
func (k *Kernel) Copy(p *sim.Proc, bytes float64, core topology.CoreID, src, dst topology.NodeID, syncChan bool) {
	k.Net.Transfer(p, bytes, k.migPath(core, src, dst, syncChan)...)
}

// MigChan returns the page-migration channel between a pair of nodes
// (order-insensitive), creating it lazily. The sync (move_pages /
// migrate_pages) and lazy (next-touch fault) paths see different
// effective capacities on the same physical channel (§4.4, Fig. 7).
func (k *Kernel) MigChan(a, b topology.NodeID, syncPath bool) *sim.Link {
	if a > b {
		a, b = b, a
	}
	cls := int32(0)
	bw := k.P.MigChanBW
	name := "migchan"
	if syncPath {
		cls = 1
		bw = k.P.MigChanSyncBW
		name = "migchan-sync"
	}
	key := [3]int32{int32(a), int32(b), cls}
	l := k.migChan[key]
	if l == nil {
		l = sim.NewLink(fmt.Sprintf("%s%d-%d", name, a, b), bw)
		k.migChan[key] = l
	}
	return l
}

// routeLinks returns the fluid links of the HT route between two nodes.
func (k *Kernel) routeLinks(from, to topology.NodeID) []*sim.Link {
	ids := k.M.Route(from, to)
	out := make([]*sim.Link, 0, len(ids))
	for _, id := range ids {
		out = append(out, k.HT[id])
	}
	return out
}

// pathKey names one memoized fluid path: a user path, or a migration
// path on the lazy or the sync channel.
type pathKey struct {
	core, src, dst int32
	kind           uint8
}

const (
	pathUser = iota
	pathMig
	pathMigSync
)

// maxPaths bounds the path memo; past it, paths are built per call.
const maxPaths = 1 << 14

// memoPath records a freshly built path under key while the memo has
// room. Memoized paths are shared by every transfer that uses them and
// never modified.
func (k *Kernel) memoPath(key pathKey, links []*sim.Link) []*sim.Link {
	links = slices.Clip(links)
	if len(k.paths) < maxPaths {
		k.paths[key] = links
	}
	return links
}

// migPath returns the fluid path for a kernel page migration executed on
// core, moving data src -> dst. syncPath selects the batched
// move_pages/migrate_pages channel capacity.
func (k *Kernel) migPath(core topology.CoreID, src, dst topology.NodeID, syncPath bool) []*sim.Link {
	key := pathKey{int32(core), int32(src), int32(dst), pathMig}
	if syncPath {
		key.kind = pathMigSync
	}
	if links, ok := k.paths[key]; ok {
		return links
	}
	links := []*sim.Link{k.KernEng[core], k.MigChan(src, dst, syncPath), k.NodeCtrl[src]}
	if src != dst {
		links = append(links, k.NodeCtrl[dst])
	}
	return k.memoPath(key, links)
}

// userPath returns the fluid path for a user-level copy or stream on
// core touching data on srcNode (and optionally writing dstNode; pass
// src==dst for pure streams).
func (k *Kernel) userPath(core topology.CoreID, src, dst topology.NodeID) []*sim.Link {
	key := pathKey{int32(core), int32(src), int32(dst), pathUser}
	if links, ok := k.paths[key]; ok {
		return links
	}
	coreNode := k.M.NodeOf(core)
	links := []*sim.Link{k.UserEng[core], k.NodeCtrl[src]}
	if dst != src {
		links = append(links, k.NodeCtrl[dst])
	}
	links = append(links, k.routeLinks(coreNode, src)...)
	if dst != src && dst != coreNode {
		links = append(links, k.routeLinks(coreNode, dst)...)
	}
	return k.memoPath(key, dedupLinks(links))
}

func dedupLinks(ls []*sim.Link) []*sim.Link {
	out := ls[:0]
	for _, l := range ls {
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	return out
}

// NewProcess creates a process with an empty address space and
// registers it for the demotion daemons' cold-page walks.
func (k *Kernel) NewProcess(name string) *Process {
	pr := &Process{
		K:          k,
		Name:       name,
		Space:      vm.NewSpace(k.Phys),
		MmapSem:    sim.NewRWLock(k.Eng, name+".mmap_sem"),
		chunkLocks: map[uint64]*sim.Resource{},
	}
	k.procs = append(k.procs, pr)
	return pr
}

// LiveThreads returns the number of live tasks across every process.
// The kernel daemons — and any control daemon built on the telemetry
// bus — retire once it reaches zero, so the engine drains normally.
func (k *Kernel) LiveThreads() int { return k.liveThreads() }

// liveThreads returns the number of live tasks across every process;
// the kernel daemons retire once it reaches zero.
func (k *Kernel) liveThreads() int {
	n := 0
	for _, pr := range k.procs {
		n += pr.NumThreads()
	}
	return n
}
