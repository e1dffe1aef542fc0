// Package bench is the perf harness: fixed suites of simulator
// workloads measured in wall time, so every change commits comparable
// BENCH_core.json / BENCH_exp.json / BENCH_scale.json /
// BENCH_serve.json reports and the repository records a performance
// trajectory instead of anecdotes. cmd/numabench -perf drives it; see
// ARCHITECTURE.md ("Performance trajectory") for the schema and the
// workflow, and tools/benchcmp for comparing two reports. The paper's
// figures are not here: they are exp families rendered by the
// internal/artifact campaigns.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	numamig "numamig"
	"numamig/internal/exp"
	"numamig/internal/sim"
	"numamig/internal/telemetry"
	"numamig/internal/topology"
	"numamig/internal/workload"
)

// PerfSchema identifies the report layout; bump on incompatible change.
const PerfSchema = "numamig-bench/v1"

// PerfOptions controls the perf run.
type PerfOptions struct {
	// Quick shrinks every point to CI-smoke size (trimmed grids, a
	// smaller task smoke). Committed reports should use full size.
	Quick bool
	// Parallel is the grid runner's worker count (0 = GOMAXPROCS).
	Parallel int
	// Repeats is how many times each point runs; the fastest repeat is
	// reported (0 = 3). Simulated results are deterministic, so repeats
	// only reduce host-scheduling noise.
	Repeats int
	// Seed is the deterministic scenario seed (0 = 1).
	Seed int64
}

func (o PerfOptions) repeats() int {
	if o.Repeats <= 0 {
		return 3
	}
	return o.Repeats
}

func (o PerfOptions) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// PerfPoint is one measured workload of a report.
type PerfPoint struct {
	Name string `json:"name"`
	// Scenarios is the number of simulated scenarios (or tasks, for
	// the smoke point) one run of the point executes.
	Scenarios int `json:"scenarios"`
	// WallNs is the fastest repeat's wall time for the whole point;
	// NsPerScenario and ScenariosPerSec derive from it.
	WallNs          int64   `json:"wall_ns"`
	NsPerScenario   int64   `json:"ns_per_scenario"`
	ScenariosPerSec float64 `json:"scenarios_per_sec"`
	// PagesMigrated counts simulated page migrations per run
	// (deterministic); PagesMigratedPerSec relates simulated work to
	// host wall time.
	PagesMigrated       uint64  `json:"pages_migrated"`
	PagesMigratedPerSec float64 `json:"pages_migrated_per_sec"`
	// AllocsPerOp / BytesPerOp are heap allocations and bytes per
	// scenario, from runtime.MemStats deltas of the fastest repeat.
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
	// PeakRSSDeltaBytes is how much this point raised the process
	// high-water RSS (Linux VmHWM) across all its repeats. Per-point
	// (unlike the report-level PeakRSSBytes), so a memory regression is
	// attributable; 0 when the point stayed under an earlier point's
	// peak. The delta is clamped at 0: VmHWM should be monotonic, but a
	// later read can come out a few pages lower.
	PeakRSSDeltaBytes int64 `json:"peak_rss_delta_bytes,omitempty"`
}

// PerfReport is one BENCH_*.json document.
type PerfReport struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Parallel   int    `json:"parallel"`
	Repeats    int    `json:"repeats"`
	Seed       int64  `json:"seed"`
	Quick      bool   `json:"quick,omitempty"`
	// PeakRSSBytes is the process high-water resident set after the
	// whole run (Linux VmHWM; 0 where unavailable). Process-wide and
	// monotonic, so it belongs to the report, not a point.
	PeakRSSBytes int64       `json:"peak_rss_bytes,omitempty"`
	Points       []PerfPoint `json:"points"`
}

// measure runs fn repeats times and fills a point from the fastest
// repeat. fn returns the scenario count and simulated pages migrated of
// one run (deterministic across repeats).
func measure(name string, repeats int, fn func() (int, uint64)) PerfPoint {
	pt := PerfPoint{Name: name}
	rss0 := peakRSS()
	var m0, m1 runtime.MemStats
	for r := 0; r < repeats; r++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		n, pages := fn()
		wall := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&m1)
		if r == 0 || wall < pt.WallNs {
			pt.WallNs = wall
			pt.Scenarios = n
			pt.PagesMigrated = pages
			if n > 0 {
				pt.AllocsPerOp = (m1.Mallocs - m0.Mallocs) / uint64(n)
				pt.BytesPerOp = (m1.TotalAlloc - m0.TotalAlloc) / uint64(n)
			}
		}
	}
	if pt.WallNs > 0 {
		pt.NsPerScenario = pt.WallNs / int64(max(pt.Scenarios, 1))
		secs := float64(pt.WallNs) / 1e9
		pt.ScenariosPerSec = float64(pt.Scenarios) / secs
		pt.PagesMigratedPerSec = float64(pt.PagesMigrated) / secs
	}
	pt.PeakRSSDeltaBytes = rssDelta(rss0, peakRSS())
	return pt
}

// rssDelta is the high-water growth from before to after, never
// negative.
func rssDelta(before, after int64) int64 {
	return max(after-before, 0)
}

// gridPoint measures one family set through the concurrent runner.
func gridPoint(name string, o PerfOptions, families []string, quick bool) (PerfPoint, error) {
	scs, err := exp.Scenarios(families, exp.Options{Quick: quick, Seed: o.seed()})
	if err != nil {
		return PerfPoint{}, err
	}
	pt := measure(name, o.repeats(), func() (int, uint64) {
		results := exp.Runner{Parallel: o.Parallel}.Run(scs)
		var pages uint64
		for _, r := range results {
			pages += r.PagesMoved
			if r.Err != "" {
				panic(fmt.Sprintf("bench: scenario %s failed: %s", r.ID, r.Err))
			}
		}
		return len(results), pages
	})
	return pt, nil
}

// churnRun is one task-churn run: an n-node grid machine running tasks
// short-lived tasks, each first-touching a small buffer and pushing it
// one node over with move_pages. Tasks are pinned round-robin over the
// machine's cores and launched one wave per core count, as a core runs
// one thread at a time on real hardware. (A rate reconfiguration
// re-solves only the flow component a transfer touches, but still
// advances every active flow.) The run exercises the sharded
// frame allocator, the extent page-table storage and the pooled event
// queue at machine sizes the paper's host never had. demotion
// additionally starts all n kswapd daemons on the batched hub.
func churnRun(o PerfOptions, nodes, coresPerNode, tasks int, demotion bool) (int, uint64) {
	const pagesPerTask = 8
	sys := numamig.New(numamig.Config{
		Nodes:        nodes,
		CoresPerNode: coresPerNode,
		MemPerNode:   1 << 30,
		Seed:         o.seed(),
		Demotion:     demotion,
	})
	ncores := sys.Machine.NumCores()
	err := sys.Run(func(main *numamig.Task) {
		for done := 0; done < tasks; {
			wave := ncores
			if left := tasks - done; left < wave {
				wave = left
			}
			wg := sim.NewWaitGroup(sys.Eng, wave)
			for i := 0; i < wave; i++ {
				core := numamig.CoreID((done + i) % ncores)
				main.Proc.Spawn("churn", core, func(t *numamig.Task) {
					defer wg.Done()
					b := numamig.MustAlloc(t, pagesPerTask*numamig.PageSize, numamig.Policy{})
					if err := b.Access(t, numamig.Stream, true); err != nil {
						panic(err)
					}
					dst := (t.Node() + 1) % numamig.NodeID(nodes)
					if err := b.MoveTo(t, dst, true); err != nil {
						panic(err)
					}
					if err := b.Access(t, numamig.Stream, false); err != nil {
						panic(err)
					}
					if err := b.Free(t); err != nil {
						panic(err)
					}
				})
			}
			done += wave
			wg.Wait(main.P)
		}
	})
	if err != nil {
		panic(err)
	}
	return tasks, sys.Migrator(numamig.Patched).Stats.PagesMoved
}

// smokePoint is the original 64-node task smoke, kept under its
// historical name so the recorded trajectory stays comparable.
func smokePoint(o PerfOptions) PerfPoint {
	tasks := 10000
	if o.Quick {
		tasks = 1000
	}
	return measure(fmt.Sprintf("smoke/64node-%dtask", tasks), o.repeats(), func() (int, uint64) {
		return churnRun(o, 64, 2, tasks, false)
	})
}

// scalePoint is the ROADMAP's datacenter target: a 256-node machine
// pushing 100k short-lived tasks through the churn loop with every
// node's demotion daemon live on the batched hub. The acceptance bound
// is single-digit seconds per run on CI hardware.
func scalePoint(o PerfOptions) PerfPoint {
	nodes, tasks := 256, 100000
	if o.Quick {
		nodes, tasks = 64, 5000
	}
	return measure(fmt.Sprintf("scale/%dnode-%dtask", nodes, tasks), o.repeats(), func() (int, uint64) {
		return churnRun(o, nodes, 2, tasks, true)
	})
}

// scaleConstructPoint measures cold construction of 1024-node machines
// — a generated grid plus kernel, and a 16-socket hierarchical machine
// with CXL expanders — the path that used to pay dense O(n²) distance
// and O(n³) route precomputes and an O(n²) zonelist build.
func scaleConstructPoint(o PerfOptions) PerfPoint {
	builds := 4
	if o.Quick {
		builds = 1
	}
	return measure("scale/1024node-construct", o.repeats(), func() (int, uint64) {
		for i := 0; i < builds; i++ {
			sys := numamig.New(numamig.Config{
				Nodes:        1024,
				CoresPerNode: 1,
				MemPerNode:   1 << 30,
				Seed:         o.seed(),
			})
			_ = sys.Machine.NumCores()
			m := topology.Hierarchy(topology.HierarchyConfig{
				Sockets: 16, DiesPerSocket: 4, NodesPerDie: 15, CXLPerSocket: 4,
				CoresPerNode: 1, MemPerNode: 1 << 30, L3PerNode: 2 << 20,
				CXLMemPerNode: 4 << 30,
			})
			if m.NumNodes() != 1024 {
				panic("scale: hierarchy is not 1024 nodes")
			}
		}
		return builds, 0
	})
}

// scaleIdlePoint measures a 1024-node machine where every kswapd daemon
// is registered and idle: one application task sleeps through many
// kswapd periods while 1024 unpressured daemons tick. With per-daemon
// parked procs this was ~1024 queue entries per period; the hub
// coalesces each period into one group event, so the point's cost is
// the determinism tax of keeping the daemons armed, not their count.
func scaleIdlePoint(o PerfOptions) PerfPoint {
	periods := 200
	if o.Quick {
		periods = 50
	}
	return measure(fmt.Sprintf("scale/1024node-idle-%dperiods", periods), o.repeats(), func() (int, uint64) {
		sys := numamig.New(numamig.Config{
			Nodes:        1024,
			CoresPerNode: 1,
			MemPerNode:   1 << 30,
			Seed:         o.seed(),
			Demotion:     true,
		})
		span := sys.Kernel.P.KswapdPeriod * sim.Time(periods)
		err := sys.Run(func(main *numamig.Task) {
			main.P.Sleep(span)
		})
		if err != nil {
			panic(err)
		}
		return periods, 0
	})
}

// newReport starts a report with the run's header fields.
func newReport(o PerfOptions) PerfReport {
	return PerfReport{
		Schema:     PerfSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Parallel:   o.Parallel,
		Repeats:    o.repeats(),
		Seed:       o.seed(),
		Quick:      o.Quick,
	}
}

// add appends a point and logs its summary line.
func (r *PerfReport) add(log io.Writer, pt PerfPoint) {
	r.Points = append(r.Points, pt)
	fmt.Fprintf(log, "%-40s %4d ops  %12d ns  %10.1f ops/s  %9.0f pages/s  %7d allocs/op\n",
		pt.Name, pt.Scenarios, pt.WallNs, pt.ScenariosPerSec, pt.PagesMigratedPerSec, pt.AllocsPerOp)
}

// write records the process peak RSS and writes the report to dir/name.
func (r *PerfReport) write(dir, name string) error {
	r.PeakRSSBytes = peakRSS()
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return err
	}
	return os.WriteFile(dir+"/"+name, []byte(buf.String()), 0o644)
}

// gridName names a grid point: grid/<what>/<full|quick>/p<workers>.
func gridName(what string, o PerfOptions) string {
	size := "full"
	if o.Quick {
		size = "quick"
	}
	return "grid/" + what + "/" + size + "/" + pname(o.Parallel)
}

// pname renders a worker count as a point-name token (0 = GOMAXPROCS).
func pname(parallel int) string {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return "p" + strconv.Itoa(parallel)
}

// RunPerf executes the perf grid and writes BENCH_core.json and
// BENCH_exp.json into dir, logging a summary line per point to log.
//
// BENCH_core contains the simulator-core points: the migration+pressure
// acceptance grid at the configured parallelism and serially, plus the
// 64-node task smoke. The 256-node scale point is in BENCH_scale only.
// BENCH_exp contains one point per registered scenario family (quick
// size), so a perf regression can be attributed to a family.
func RunPerf(o PerfOptions, dir string, log io.Writer) error {
	core := newReport(o)
	serial := o
	serial.Parallel = 1
	mp := []string{"migration", "pressure"}
	for _, po := range []PerfOptions{o, serial} {
		pt, err := gridPoint(gridName("migration+pressure", po), po, mp, o.Quick)
		if err != nil {
			return err
		}
		core.add(log, pt)
	}
	// The same serial grid with a subscriber on every telemetry topic of
	// every System: p1-bus vs p1 is the recorded cost of a fully lit
	// event bus (the acceptance bound is <= 5%).
	numamig.SetSystemObserver(func(sys *numamig.System) {
		events := 0
		sys.Bus().SubscribeAll(func(telemetry.Event) { events++ })
		_ = events
	})
	pt, err := gridPoint(gridName("migration+pressure", serial)+"-bus", serial, mp, o.Quick)
	numamig.SetSystemObserver(nil)
	if err != nil {
		return err
	}
	core.add(log, pt)
	core.add(log, smokePoint(o))
	if err := core.write(dir, "BENCH_core.json"); err != nil {
		return err
	}

	expRep := newReport(o)
	for _, fam := range exp.Families() {
		pt, err := gridPoint("family/"+fam+"/quick/"+pname(o.Parallel), o, []string{fam}, true)
		if err != nil {
			return err
		}
		expRep.add(log, pt)
	}
	return expRep.write(dir, "BENCH_exp.json")
}

// servePoint is one saturated multi-tenant serve machine measured
// directly through workload.Serve: the largest topology the serve
// family supports (7 DRAM nodes + 1 CXL expander, one tenant per fast
// core) with doubled probe rounds, so the point is dominated by the
// tenancy fast paths — cap-redirected faults, ledger charges on every
// residency change, priority queueing through the migration engine and
// the kswapd cap-reclaim. The run's own SLO invariants stay enforced:
// a cap violation fails the bench.
func servePoint(o PerfOptions) PerfPoint {
	fast, tenants, rounds := 7, 28, 16
	if o.Quick {
		fast, tenants, rounds = 3, 12, 8
	}
	return measure(fmt.Sprintf("serve/%dfast-%dtenant-%dround", fast, tenants, rounds), o.repeats(), func() (int, uint64) {
		// SlowRatio 4: the cap-reclaim daemons may demote a batch
		// tenant's whole working set, so the lone expander must absorb
		// every batch tenant's full buffer at once.
		r, err := workload.Serve(workload.ServeConfig{
			FastNodes: fast,
			SlowNodes: 1,
			SlowRatio: 4,
			Tenants:   tenants,
			Rounds:    rounds,
			Seed:      o.seed(),
		})
		if err != nil {
			panic(err)
		}
		if r.CapViolations != 0 || r.LeakedPages != 0 {
			panic(fmt.Sprintf("serve bench: %d cap violations, %d leaked pages", r.CapViolations, r.LeakedPages))
		}
		st := r.Stats
		pages := st.MovePagesPages + st.NTMigrations + st.MigratePages + st.NumaPagesPromoted + st.PagesDemoted
		return tenants, pages
	})
}

// RunServePerf executes the multi-tenant serving points — the serve
// scenario grid at the configured parallelism and serially, plus the
// saturated direct-driver point — and writes BENCH_serve.json into
// dir. cmd/numabench -perf -serve drives it; the CI bench job's serve
// suite runs the quick sizes and gates them with tools/benchcmp like
// the core and scale trajectories.
func RunServePerf(o PerfOptions, dir string, log io.Writer) error {
	rep := newReport(o)
	serial := o
	serial.Parallel = 1
	for _, po := range []PerfOptions{o, serial} {
		pt, err := gridPoint(gridName("serve", po), po, []string{"serve"}, o.Quick)
		if err != nil {
			return err
		}
		rep.add(log, pt)
	}
	rep.add(log, servePoint(o))
	return rep.write(dir, "BENCH_serve.json")
}

// RunScalePerf executes only the datacenter-scale points — the
// 256-node × 100k-task churn, 1024-node construction, and the
// 1024-node idle-daemon smoke — and writes BENCH_scale.json into dir.
// cmd/numabench -perf -scale drives it; the CI bench job's scale suite
// runs the quick sizes and gates them with tools/benchcmp like the
// core trajectory.
func RunScalePerf(o PerfOptions, dir string, log io.Writer) error {
	rep := newReport(o)
	for _, pt := range []PerfPoint{scalePoint(o), scaleConstructPoint(o), scaleIdlePoint(o)} {
		rep.add(log, pt)
	}
	return rep.write(dir, "BENCH_scale.json")
}

// peakRSS reads the process high-water RSS from /proc/self/status
// (VmHWM, in kB). Best-effort: 0 on any platform or parse trouble.
func peakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
