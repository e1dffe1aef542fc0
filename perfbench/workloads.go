package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"time"

	numamig "numamig"
	"numamig/internal/exp"
	"numamig/internal/kern"
	"numamig/internal/sim"
)

// counts are the exact simulated work counters of one op. A speed-only
// change must leave every one of them unchanged.
type counts struct {
	faults, syscalls, tlb       uint64
	pages                       uint64 // pages physically migrated
	hints, demoted, rateLimited uint64
	events                      uint64 // DES engine steps (grid workloads: traced runs only)
}

func (c *counts) add(o counts) {
	c.faults += o.faults
	c.syscalls += o.syscalls
	c.tlb += o.tlb
	c.pages += o.pages
	c.hints += o.hints
	c.demoted += o.demoted
	c.rateLimited += o.rateLimited
	c.events += o.events
}

// opResult is the outcome of one op.
type opResult struct {
	counts
	// err names the first output check the op failed; "" when it
	// passed every check.
	err string
}

// phases are the host times of one set-up's parts.
type phases struct {
	generate, construct, warmup time.Duration
}

// instance is one set-up workload, ready to run ops.
type instance interface {
	// op runs one op; tr is nil in untraced runs.
	op(tr *tracer) opResult
	// digest is the hash of the simulated results of the warm-up op,
	// which every later op must reproduce exactly.
	digest() uint64
	// close releases the instance and stops every goroutine it started.
	close()
}

// workload is one named benchmark workload.
type workload struct {
	name  string
	setup func(seed int64) (instance, phases, error)
}

var workloads = []workload{
	{"paper-migrate", setupPaperMigrate},
	{"churn-256", setupChurn},
	{"tiering-mix", setupTieringMix},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// simSeed maps the benchmark seed to a non-zero simulation seed (0
// selects a default inside the simulator, which would alias seed 1).
func simSeed(seed int64) int64 {
	if s := seed + 1; s != 0 {
		return s
	}
	return 1
}

// ---- grid workloads: one op is one whole pass over a scenario list ----

type gridInstance struct {
	scs      []exp.Scenario
	parallel int
	ref      []exp.Result // warm-up pass, run serially
	refHash  uint64
	check    func([]exp.Result) string // workload-specific output check
}

// setupGrid generates the families' scenarios and runs the warm-up pass
// serially; its results are the reference every pass must reproduce,
// which also checks that parallel passes equal serial ones.
func setupGrid(families []string, seed int64, parallel int, check func([]exp.Result) string) (*gridInstance, phases, error) {
	var ph phases
	t0 := time.Now()
	scs, err := exp.Scenarios(families, exp.Options{Seed: simSeed(seed)})
	ph.generate = time.Since(t0)
	if err != nil {
		return nil, ph, err
	}
	g := &gridInstance{scs: scs, parallel: parallel, check: check}
	t1 := time.Now()
	g.ref = exp.Runner{Parallel: 1}.Run(scs)
	ph.warmup = time.Since(t1)
	for _, r := range g.ref {
		if r.Err != "" {
			return nil, ph, fmt.Errorf("warm-up scenario %s: %s", r.ID, r.Err)
		}
	}
	if msg := check(g.ref); msg != "" {
		return nil, ph, fmt.Errorf("warm-up pass: %s", msg)
	}
	g.refHash = hashResults(g.ref)
	return g, ph, nil
}

func (g *gridInstance) op(tr *tracer) opResult {
	var res []exp.Result
	if tr == nil {
		res = exp.Runner{Parallel: g.parallel}.Run(g.scs)
	} else {
		res = tr.runPass(g.scs, g.parallel)
	}
	var out opResult
	for i := range res {
		r := &res[i]
		out.faults += r.Faults
		out.syscalls += r.Syscalls
		out.tlb += r.TLBShootdowns
		out.pages += r.PagesMoved
		out.hints += r.NumaHints
		out.demoted += r.Demoted
		out.rateLimited += r.RateLimited
		if out.err != "" {
			continue
		}
		switch {
		case r.Err != "":
			out.err = fmt.Sprintf("scenario %s: %s", r.ID, r.Err)
		case *r != g.ref[i]:
			out.err = fmt.Sprintf("scenario %s: result differs from the warm-up result", r.ID)
		}
	}
	if out.err == "" {
		out.err = g.check(res)
	}
	if tr != nil {
		out.events = tr.takeEvents()
	}
	return out
}

func (g *gridInstance) digest() uint64 { return g.refHash }
func (g *gridInstance) close()         {}

// hashResults hashes every simulated field of every result, in order.
func hashResults(rs []exp.Result) uint64 {
	h := fnv.New64a()
	for i := range rs {
		fmt.Fprintf(h, "%+v\n", rs[i])
	}
	return h.Sum64()
}

func setupPaperMigrate(seed int64) (instance, phases, error) {
	return setupGrid([]string{"migration"}, seed, runtime.GOMAXPROCS(0), checkPaperRatio)
}

func setupTieringMix(seed int64) (instance, phases, error) {
	return setupGrid([]string{"tiered", "tiering", "serve"}, seed, 1, func([]exp.Result) string { return "" })
}

// checkPaperRatio is the paper's Fig. 7 claim: at 4096 pages, patched
// synchronous move_pages is at least 3x faster than unpatched on every
// node count.
func checkPaperRatio(rs []exp.Result) string {
	type key struct {
		nodes   int
		patched bool
	}
	mbps := map[key]float64{}
	nodes := map[int]bool{}
	for _, r := range rs {
		if r.Mode == "sync" && r.Pages == 4096 {
			mbps[key{r.Nodes, r.Patched}] = r.MBps
			nodes[r.Nodes] = true
		}
	}
	if len(nodes) == 0 {
		return "no sync scenario at 4096 pages"
	}
	for n := range nodes {
		p, u := mbps[key{n, true}], mbps[key{n, false}]
		if u <= 0 || p < 3*u {
			return fmt.Sprintf("patched sync %.1f MB/s is not 3x unpatched %.1f MB/s at 4096 pages, %d nodes", p, u, n)
		}
	}
	return ""
}

// ---- churn-256: one op is one wave of short-lived tasks ----

const (
	churnNodes        = 256
	churnCoresPerNode = 2
	churnPagesPerTask = 8
)

// waveOut is the simulated outcome of one churn wave. Waves start from
// the same machine state, so every wave's waveOut must equal the
// warm-up wave's.
type waveOut struct {
	vdur      sim.Time // first spawn to last task exit
	ends      uint64   // hash of every task's (core, start, end) in spawn order
	st        kern.Stats
	allocated int64 // frames allocated after the wave
}

// waveDone is what the simulated main thread reports after a wave: the
// outcome plus the engine steps it took. The step count is left out of
// the comparison because it includes daemon-hub timer events, whose
// phase against the wave shifts by one on the first wave.
type waveDone struct {
	out   waveOut
	steps uint64
}

// churnInstance keeps one 256-node machine running across ops: its main
// task blocks on start between waves, so the simulation (and its 256
// kswapd daemons on the batched hub) stays alive while the host times
// each wave.
type churnInstance struct {
	sys     *numamig.System
	cores   []numamig.CoreID // seed-shuffled spawn order, one task per core
	start   chan *tracer
	done    chan waveDone
	runErr  chan error
	base    int64 // frames allocated before the first wave
	ref     waveOut
	refHash uint64
}

func setupChurn(seed int64) (instance, phases, error) {
	var ph phases
	t0 := time.Now()
	c := &churnInstance{
		start:  make(chan *tracer),
		done:   make(chan waveDone),
		runErr: make(chan error, 1),
	}
	rng := rand.New(rand.NewSource(seed))
	c.cores = make([]numamig.CoreID, churnNodes*churnCoresPerNode)
	for i, j := range rng.Perm(len(c.cores)) {
		c.cores[i] = numamig.CoreID(j)
	}
	ph.generate = time.Since(t0)

	t1 := time.Now()
	c.sys = numamig.New(numamig.Config{
		Nodes:        churnNodes,
		CoresPerNode: churnCoresPerNode,
		MemPerNode:   1 << 30,
		Seed:         simSeed(seed),
		Demotion:     true,
	})
	c.base = c.sys.Kernel.Phys.TotalAllocated()
	go func() { c.runErr <- c.sys.Run(c.main) }()
	ph.construct = time.Since(t1)

	t2 := time.Now()
	d, err := c.wave(nil)
	ref := d.out
	ph.warmup = time.Since(t2)
	if err != nil {
		c.close()
		return nil, ph, err
	}
	c.ref = ref
	if msg := c.check(ref); msg != "" {
		c.close()
		return nil, ph, fmt.Errorf("warm-up wave: %s", msg)
	}
	c.refHash = hashWave(ref)
	return c, ph, nil
}

// main is the simulated main thread: one wave per host request.
func (c *churnInstance) main(main *numamig.Task) {
	nodes := numamig.NodeID(c.sys.Machine.NumNodes())
	for tr := range c.start {
		st0, steps0 := c.sys.Stats(), c.sys.Eng.Steps()
		begin := main.P.Now()
		ends := make([][2]sim.Time, len(c.cores))
		wg := sim.NewWaitGroup(c.sys.Eng, len(c.cores))
		for i, core := range c.cores {
			main.Proc.Spawn("churn", core, func(t *numamig.Task) {
				defer wg.Done()
				ends[i][0] = t.P.Now()
				churnTask(t, nodes, tr)
				ends[i][1] = t.P.Now()
			})
		}
		wg.Wait(main.P)
		h := fnv.New64a()
		for i, e := range ends {
			fmt.Fprintf(h, "%d %d %d\n", c.cores[i], e[0]-begin, e[1]-begin)
		}
		c.done <- waveDone{
			out: waveOut{
				vdur:      main.P.Now() - begin,
				ends:      h.Sum64(),
				st:        statsDelta(c.sys.Stats(), st0),
				allocated: c.sys.Kernel.Phys.TotalAllocated(),
			},
			steps: c.sys.Eng.Steps() - steps0,
		}
	}
}

// churnTask is one short-lived task: mmap 8 pages, first-touch write,
// move_pages one node over, read back, munmap. With a tracer it records
// the virtual time of each call.
func churnTask(t *numamig.Task, nodes numamig.NodeID, tr *tracer) {
	v0 := t.P.Now()
	b := numamig.MustAlloc(t, churnPagesPerTask*numamig.PageSize, numamig.Policy{})
	v1 := t.P.Now()
	if err := b.Access(t, numamig.Stream, true); err != nil {
		panic(err)
	}
	v2 := t.P.Now()
	if err := b.MoveTo(t, (t.Node()+1)%nodes, true); err != nil {
		panic(err)
	}
	v3 := t.P.Now()
	if err := b.Access(t, numamig.Stream, false); err != nil {
		panic(err)
	}
	v4 := t.P.Now()
	if err := b.Free(t); err != nil {
		panic(err)
	}
	if tr != nil {
		tr.taskSpans(v0, v1, v2, v3, v4, t.P.Now())
	}
}

// wave runs one wave and waits for it; an engine failure (a task
// panicked) ends the simulation and is returned.
func (c *churnInstance) wave(tr *tracer) (waveDone, error) {
	select {
	case c.start <- tr:
	case err := <-c.runErr:
		c.runErr <- err
		return waveDone{}, fmt.Errorf("simulation ended: %v", err)
	}
	select {
	case d := <-c.done:
		return d, nil
	case err := <-c.runErr:
		c.runErr <- err
		return waveDone{}, fmt.Errorf("simulation ended: %v", err)
	}
}

func (c *churnInstance) check(w waveOut) string {
	moved := w.st.MovePagesPages + w.st.NTMigrations + w.st.MigratePages + w.st.NumaPagesPromoted + w.st.PagesDemoted
	if want := uint64(len(c.cores) * churnPagesPerTask); moved != want {
		return fmt.Sprintf("wave moved %d pages, want %d", moved, want)
	}
	if w.allocated != c.base {
		return fmt.Sprintf("wave left %d frames allocated after munmap", w.allocated-c.base)
	}
	return ""
}

func (c *churnInstance) op(tr *tracer) opResult {
	d, err := c.wave(tr)
	if err != nil {
		return opResult{err: err.Error()}
	}
	w := d.out
	out := opResult{counts: counts{
		faults:      w.st.Faults,
		syscalls:    w.st.Syscalls,
		tlb:         w.st.TLBShootdowns,
		pages:       w.st.MovePagesPages + w.st.NTMigrations + w.st.MigratePages + w.st.NumaPagesPromoted + w.st.PagesDemoted,
		hints:       w.st.NumaHintFaults,
		demoted:     w.st.PagesDemoted,
		rateLimited: w.st.PromoteRateLimited,
		events:      d.steps,
	}}
	if out.err = c.check(w); out.err == "" && w != c.ref {
		out.err = "wave result differs from the warm-up wave"
	}
	return out
}

func (c *churnInstance) digest() uint64 { return c.refHash }

// close ends the main task; the kswapd daemons retire once no
// application thread is left, and the simulation returns.
func (c *churnInstance) close() {
	close(c.start)
	<-c.runErr
}

func hashWave(w waveOut) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v\n", w)
	return h.Sum64()
}

// statsDelta is a-b over the integer counters; the float byte totals
// are left out because their rounding depends on the running total.
func statsDelta(a, b kern.Stats) kern.Stats {
	return kern.Stats{
		Faults:             a.Faults - b.Faults,
		MovePagesPages:     a.MovePagesPages - b.MovePagesPages,
		NTMigrations:       a.NTMigrations - b.NTMigrations,
		MigratePages:       a.MigratePages - b.MigratePages,
		NumaPagesPromoted:  a.NumaPagesPromoted - b.NumaPagesPromoted,
		PagesDemoted:       a.PagesDemoted - b.PagesDemoted,
		TLBShootdowns:      a.TLBShootdowns - b.TLBShootdowns,
		Syscalls:           a.Syscalls - b.Syscalls,
		NumaHintFaults:     a.NumaHintFaults - b.NumaHintFaults,
		PromoteRateLimited: a.PromoteRateLimited - b.PromoteRateLimited,
	}
}
