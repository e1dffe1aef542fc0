// Command perfbench is the repository's benchmark. It drives the
// simulator only through its public functions (exp.Scenarios,
// exp.Runner, exp.RunScenario, numamig.New and Buffer, and the layer
// packages' exported APIs) on three closed-loop workloads, one client
// each, the next op only after the previous one completes:
//
//   - paper-migrate: one op is one pass of the migration family (the
//     paper's Fig. 7 grid, 60 scenarios) through exp.Runner with one
//     worker per GOMAXPROCS;
//   - churn-256: one op is one wave of 512 short-lived tasks on a
//     256-node x 2-core machine with all 256 kswapd daemons on the
//     batched hub;
//   - tiering-mix: one op is one serial pass of the tiered, tiering and
//     serve families (34 scenarios).
//
// Each op is one homogeneous unit of work, so op times are comparable
// within a run. Set-up (input generation, machine construction, one
// untimed warm-up op and a GC) is repeated setupRepeats times and its
// median reported; a grid workload's warm-up op is a serial pass whose
// results every later pass must reproduce exactly. The rate and op-time
// metrics are each taken from the best of several equal windows of the
// measured phase (see windows).
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper-migrate --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a separate traced run. The line before it carries the host
// context, the simulated-output digest and the tail's sample count.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 9

// settle is how long ops run untimed before a measured phase. On small
// virtual machines the first few hundred milliseconds of parallel work
// after a serial stretch run up to twice as slow while the host brings
// the idle vCPU up to speed; timing them would put host state, not the
// program, into the tail.
const settle = time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is the line printed before the result.
type info struct {
	Workload       string   `json:"workload"`
	Seed           int64    `json:"seed"`
	Trace          bool     `json:"trace"`
	Host           hostInfo `json:"host"`
	SimDigest      string   `json:"sim_digest"`
	Ops            int      `json:"ops"`
	TailPercentile float64  `json:"op_tail_percentile"`
	TailSamples    int      `json:"op_tail_samples"`
	SetupSamples   int      `json:"setup_samples"`
	FirstFailure   string   `json:"first_failure,omitempty"`
	SpanLog        string   `json:"span_log,omitempty"`
}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	run      time.Duration
	trace    bool
	out      string // directory for the span log
	setups   int
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: paper-migrate, churn-256 or tiering-mix")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		out     = flag.String("out", ".bench_build/perfbench-out", "directory for the traced run's span log")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		run:      time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		out:      *out,
		setups:   setupRepeats,
	}
	inf, res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(inf); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// tally accumulates the ops of one measured phase.
type tally struct {
	times   []float64       // host ms per timed op
	starts  []time.Duration // each timed op's start, from the phase start
	pages   []uint64        // simulated pages each timed op migrated
	elapsed time.Duration
	settled int // untimed settle ops
	failed  int // failed ops, settle ops included
	first   string
	counts  counts // timed ops only
}

// attempted counts every op run, settle ops included.
func (t *tally) attempted() int { return len(t.times) + t.settled }

func (t *tally) note(r opResult) {
	if r.err != "" {
		if t.failed == 0 {
			t.first = r.err
		}
		t.failed++
	}
}

// measure runs ops on inst for settleFor, then times ops until d has
// passed (at least one). Settle ops are checked like the others but not
// timed. With a tracer, each timed op is traced.
func measure(inst instance, d, settleFor time.Duration, tr *tracer, opBase int) tally {
	var t tally
	for s := time.Now(); time.Since(s) < settleFor; t.settled++ {
		t.note(inst.op(nil))
	}
	start := time.Now()
	for len(t.times) == 0 || time.Since(start) < d {
		var spanStart int64
		if tr != nil {
			spanStart = tr.beginOp(opBase + len(t.times))
		}
		t0 := time.Now()
		r := inst.op(tr)
		t.times = append(t.times, float64(time.Since(t0))/1e6)
		t.starts = append(t.starts, t0.Sub(start))
		t.pages = append(t.pages, r.pages)
		if tr != nil {
			tr.endOp(spanStart)
		}
		t.counts.add(r.counts)
		t.note(r)
	}
	t.elapsed = time.Since(start)
	return t
}

// merge appends o's ops to t; the op start offsets of the merged tally
// are no longer on one time line, so windowed does not apply to it.
func (t *tally) merge(o tally) {
	t.times = append(t.times, o.times...)
	t.pages = append(t.pages, o.pages...)
	t.elapsed += o.elapsed
	t.settled += o.settled
	if t.failed == 0 {
		t.first = o.first
	}
	t.failed += o.failed
	t.counts.add(o.counts)
}

// rate is ops per second of op time.
func (t *tally) rate() float64 {
	var ms float64
	for _, x := range t.times {
		ms += x
	}
	return float64(len(t.times)) / ms * 1e3
}

// windows is how many equal slices of a measured phase the end-to-end
// op metrics are computed over. Each metric reports its best window:
// the host this runs on shares its cores, and its speed drifts by a
// fifth and more over tens of seconds, so the least disturbed window
// is the steadiest estimate of the program's own speed (the perf
// harness in internal/bench reports its fastest repeat for the same
// reason).
const windows = 6

// window is the op statistics of one window.
type window struct {
	opsPerS, pagesPerS float64 // per second of op time
	p50, tail, tailPct float64
	n                  int
}

// windowed splits the phase into windows and returns each metric's
// best window value: the highest rates, the lowest median and the
// lowest tail (with that window's tail percentile and sample count).
func (t *tally) windowed() window {
	var best window
	for w := 0; w < windows; w++ {
		lo := t.elapsed * time.Duration(w) / windows
		hi := t.elapsed * time.Duration(w+1) / windows
		var times []float64
		var ms float64
		var pg uint64
		for i, s := range t.starts {
			if s >= lo && (s < hi || w == windows-1) {
				times = append(times, t.times[i])
				ms += t.times[i]
				pg += t.pages[i]
			}
		}
		if len(times) == 0 {
			continue
		}
		cur := window{
			opsPerS:   float64(len(times)) / ms * 1e3,
			pagesPerS: float64(pg) / ms * 1e3,
			p50:       median(times),
			n:         len(times),
		}
		cur.tail, cur.tailPct = tail(times)
		if best.n == 0 {
			best = cur
			continue
		}
		best.opsPerS = max(best.opsPerS, cur.opsPerS)
		best.pagesPerS = max(best.pagesPerS, cur.pagesPerS)
		best.p50 = min(best.p50, cur.p50)
		if cur.tail < best.tail {
			best.tail, best.tailPct, best.n = cur.tail, cur.tailPct, cur.n
		}
	}
	return best
}

// setupMany sets the workload up n times, each after releasing the
// previous instance and collecting its garbage untimed, and returns the
// last instance with every set-up's total and phase times.
func setupMany(w workload, seed int64, n int) (instance, []float64, []phases, error) {
	var inst instance
	var totals []float64
	var phs []phases
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		t0 := time.Now()
		in, ph, err := w.setup(seed)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		totals = append(totals, time.Since(t0).Seconds())
		phs = append(phs, ph)
		inst = in
	}
	return inst, totals, phs, nil
}

func run(cfg config) (info, result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return info{}, result{}, err
	}
	inf := info{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Host: host(), SetupSamples: cfg.setups}
	inst, setups, phs, err := setupMany(w, cfg.seed, cfg.setups)
	if err != nil {
		return info{}, result{}, err
	}
	defer inst.close()
	inf.SimDigest = fmt.Sprintf("%016x", inst.digest())
	if cfg.trace {
		return traced(cfg, inf, inst, phs)
	}

	t := measure(inst, cfg.run, settle, nil, 0)
	best := t.windowed()
	inf.Ops = t.attempted()
	inf.TailPercentile = best.tailPct
	inf.TailSamples = best.n
	inf.FirstFailure = t.first
	n := float64(t.attempted())
	res := result{
		Correct:   t.failed == 0,
		Attempted: t.attempted(),
		Failed:    t.failed,
		Metrics: map[string]metric{
			"ops_per_s":       {best.opsPerS, "1/s"},
			"sim_pages_per_s": {best.pagesPerS, "pages/s"},
			"op_p50_ms":       {best.p50, "ms"},
			"op_tail_ms":      {best.tail, "ms"},
			"peak_rss_mb":     {peakRSSMB(), "MB"},
			"setup_s":         {median(setups), "s"},
			"op_ok_ratio":     {(n - float64(t.failed)) / n, "ratio"},
		},
	}
	return inf, res, nil
}

// traceBlocks is how many untraced and traced blocks a traced run
// alternates.
const traceBlocks = 2

// traced is the per-layer run: untraced blocks (the baseline for the
// tracing overhead, and the allocation counts) alternating with traced
// blocks under the CPU profiler, then the layer drives.
func traced(cfg config, inf info, inst instance, phs []phases) (info, result, error) {
	m := map[string]metric{}
	h := inf.Host
	m["host.num_cpu"] = metric{float64(h.NumCPU), "count"}
	m["host.gomaxprocs"] = metric{float64(h.GOMAXPROCS), "count"}
	var gen, con, warm []float64
	for _, p := range phs {
		gen = append(gen, p.generate.Seconds()*1e3)
		con = append(con, p.construct.Seconds()*1e3)
		warm = append(warm, p.warmup.Seconds()*1e3)
	}
	m["setup.generate_ms"] = metric{median(gen), "ms"}
	m["setup.new_ms"] = metric{median(con), "ms"}
	m["setup.warmup_ms"] = metric{median(warm), "ms"}

	// Untraced and traced blocks alternate, so a slow drift of host
	// speed shows in both rates alike instead of in the overhead.
	var base, t tally
	var mallocs, allocBytes uint64
	var profiles [][]byte
	tr := newTracer()
	for b := 0; b < traceBlocks; b++ {
		settleFor := time.Duration(0)
		if b == 0 {
			settleFor = settle
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		base.merge(measure(inst, cfg.run/(4*traceBlocks), settleFor, nil, 0))
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc

		var prof bytes.Buffer
		tr.attach()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			tr.detach()
			return info{}, result{}, fmt.Errorf("cpu profile: %w", err)
		}
		t.merge(measure(inst, cfg.run/(2*traceBlocks), 0, tr, len(t.times)))
		pprof.StopCPUProfile()
		tr.detach()
		profiles = append(profiles, prof.Bytes())
	}
	bn := float64(len(base.times))
	m["allocs_per_op"] = metric{float64(mallocs) / bn, "count"}
	m["alloc_bytes_per_op"] = metric{float64(allocBytes) / bn, "B"}
	untracedRate, tracedRate := base.rate(), t.rate()
	m["trace.untraced_ops_per_s"] = metric{untracedRate, "1/s"}
	m["trace.traced_ops_per_s"] = metric{tracedRate, "1/s"}
	m["trace.overhead_frac"] = metric{1 - tracedRate/untracedRate, "ratio"}

	shares, err := layerShares(profiles...)
	if err != nil {
		return info{}, result{}, fmt.Errorf("cpu profile: %w", err)
	}
	for _, l := range shareLayers {
		m["share."+l] = metric{shares[l], "ratio"}
	}

	n := float64(len(t.times))
	c := t.counts
	for name, v := range map[string]uint64{
		"kern.faults_per_op":          c.faults,
		"kern.syscalls_per_op":        c.syscalls,
		"kern.tlb_shootdowns_per_op":  c.tlb,
		"migrate.pages_per_op":        c.pages,
		"autonuma.hints_per_op":       c.hints,
		"kern.demoted_per_op":         c.demoted,
		"tiering.rate_limited_per_op": c.rateLimited,
		"sim.events_per_op":           c.events,
	} {
		m[name] = metric{float64(v) / n, "count"}
	}
	for _, fam := range []string{"migration", "tiered", "tiering", "serve"} {
		d := tr.durations("exp.scenario." + fam)
		tl, _ := tail(d)
		m["exp.scenario_ms."+fam+".p50"] = metric{median(d) / 1e6, "ms"}
		m["exp.scenario_ms."+fam+".tail"] = metric{tl / 1e6, "ms"}
	}
	m["exp.runner_idle_frac"] = metric{tr.idleFrac(), "ratio"}
	for _, call := range []string{"mmap", "touch", "move_pages", "read", "munmap"} {
		m["kern.vtime_us."+call] = metric{median(tr.durations("kern."+call)) / 1e3, "us"}
	}
	path, err := tr.write(cfg.out, cfg.workload, cfg.seed)
	if err != nil {
		return info{}, result{}, fmt.Errorf("span log: %w", err)
	}
	inf.SpanLog = path

	for name, v := range drives() {
		m[name] = metric{v, "ns"}
	}

	attempted := base.attempted() + t.attempted()
	failed := base.failed + t.failed
	inf.Ops = attempted
	_, inf.TailPercentile = tail(t.times)
	inf.TailSamples = len(t.times)
	inf.FirstFailure = base.first
	if inf.FirstFailure == "" {
		inf.FirstFailure = t.first
	}
	return inf, result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
