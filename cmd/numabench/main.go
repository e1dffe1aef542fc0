// Command numabench runs the scenario grid, the artifact campaigns that
// regenerate the paper's tables and figures, and the perf harness.
//
// Usage:
//
//	numabench -grid                       # full scenario grid, aligned table
//	numabench -grid -parallel 8 -quick    # trimmed grid, 8 workers
//	numabench -grid -format json          # machine-readable output
//	numabench -grid -families replication # one scenario family
//	numabench -grid -families fig4 -quick # one paper figure's cells
//	numabench -grid -nodes 1,2,4,8        # sweep machine sizes explicitly
//	numabench -grid -cores-per-node 2     # narrower sockets
//	numabench -list                       # enumerate families + counts
//	numabench -artifact artifacts/paper-throughput.json  # Figs. 4, 5, 7 + huge pages, rendered
//	numabench -perf -quick -perf-out out  # perf harness (-scale, -serve pick a suite)
//
// Grid families: see -list (all registered families; fig4 ... policies
// are the paper's figures and tables, one family each). The committed
// campaigns under artifacts/ render them; see README.md.
//
// Grid output is deterministic: the same -seed produces byte-identical
// JSON/CSV whatever -parallel is, because every scenario runs its own
// simulated system.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	numamig "numamig"
	"numamig/internal/artifact"
	"numamig/internal/bench"
	"numamig/internal/exp"
	"numamig/internal/telemetry"
	"numamig/internal/topology"
)

func main() {
	quick := flag.Bool("quick", false, "reduced parameter sweeps (seconds instead of minutes)")
	grid := flag.Bool("grid", false, "run the scenario grid (internal/exp)")
	list := flag.Bool("list", false, "list registered scenario families with counts and descriptions")
	families := flag.String("families", "", "comma-separated scenario families for -grid (default: all of "+strings.Join(exp.Families(), ", ")+")")
	parallel := flag.Int("parallel", 0, "grid worker goroutines (0 = GOMAXPROCS)")
	format := flag.String("format", "table", "grid output format: table, csv or json")
	seed := flag.Int64("seed", 1, "base deterministic seed for -grid scenarios")
	nodes := flag.String("nodes", "", "comma-separated topology.Grid node counts to sweep for -grid/-list (subset of 1..1024; default per family)")
	coresPerNode := flag.Int("cores-per-node", 0, "cores per node for -grid/-list scenarios (0 = the Opteron host's 4)")
	scenario := flag.String("scenario", "", "run only the -grid scenario with this exact ID")
	trace := flag.String("trace", "", "write a chrome-trace (chrome://tracing / Perfetto) JSON of the run to this file; requires -grid narrowed to exactly one scenario")
	artifactCfg := flag.String("artifact", "", "run the paper-artifact campaign described by this JSON config (internal/artifact)")
	artifactOut := flag.String("artifact-out", "", "artifact output directory (default: <config dir>/<campaign name>)")
	perf := flag.Bool("perf", false, "run the perf harness and write BENCH_core.json / BENCH_exp.json to -perf-out")
	scale := flag.Bool("scale", false, "with -perf: run only the datacenter-scale points and write BENCH_scale.json")
	serve := flag.Bool("serve", false, "with -perf: run only the multi-tenant serving points and write BENCH_serve.json")
	perfOut := flag.String("perf-out", ".", "directory the -perf reports are written to")
	repeats := flag.Int("repeats", 0, "-perf repeats per point, fastest kept (0 = 3)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "numabench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "numabench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "numabench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "numabench:", err)
			}
		}()
	}
	if err := run(*quick, *grid, *list, *families, *parallel, *format,
		*seed, *nodes, *coresPerNode, *scenario, *trace, *artifactCfg, *artifactOut,
		*perf, *scale, *serve, *perfOut, *repeats); err != nil {
		if code, ok := err.(exitCode); ok {
			// Profile defers must run before exiting.
			pprof.StopCPUProfile()
			os.Exit(int(code))
		}
		fmt.Fprintln(os.Stderr, "numabench:", err)
		os.Exit(1)
	}
}

// exitCode carries a specific exit status through run's error return so
// main's profile-writing defers still execute.
type exitCode int

func (c exitCode) Error() string { return fmt.Sprintf("exit %d", int(c)) }

func run(quick, grid, list bool, families string, parallel int,
	format string, seed int64, nodes string, coresPerNode int,
	scenario, trace, artifactCfg, artifactOut string,
	perf, scale, serve bool, perfOut string, repeats int) error {

	nodeList, err := parseNodeList(nodes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "numabench:", err)
		return exitCode(2)
	}
	if coresPerNode < 0 {
		fmt.Fprintln(os.Stderr, "numabench: -cores-per-node must be >= 0")
		return exitCode(2)
	}
	opts := exp.Options{Quick: quick, Seed: seed, NodeList: nodeList, CoresPerNode: coresPerNode}

	if list {
		return listFamilies(os.Stdout, opts)
	}
	if artifactCfg != "" {
		if grid || perf {
			fmt.Fprintln(os.Stderr, "numabench: -artifact cannot combine with -grid/-perf")
			return exitCode(2)
		}
		return runArtifact(artifactCfg, artifactOut, parallel)
	}
	if artifactOut != "" {
		fmt.Fprintln(os.Stderr, "numabench: -artifact-out requires -artifact")
		return exitCode(2)
	}
	if perf {
		po := bench.PerfOptions{
			Quick:    quick,
			Parallel: parallel,
			Repeats:  repeats,
			Seed:     seed,
		}
		if scale && serve {
			fmt.Fprintln(os.Stderr, "numabench: -scale and -serve are mutually exclusive")
			return exitCode(2)
		}
		if scale {
			return bench.RunScalePerf(po, perfOut, os.Stdout)
		}
		if serve {
			return bench.RunServePerf(po, perfOut, os.Stdout)
		}
		return bench.RunPerf(po, perfOut, os.Stdout)
	}
	if scale || serve {
		fmt.Fprintln(os.Stderr, "numabench: -scale and -serve require -perf")
		return exitCode(2)
	}
	if grid {
		return runGrid(families, parallel, format, scenario, trace, opts)
	}
	if scenario != "" || trace != "" {
		fmt.Fprintln(os.Stderr, "numabench: -scenario and -trace require -grid")
		return exitCode(2)
	}
	fmt.Fprintln(os.Stderr, "numabench: need -grid, -list, -artifact or -perf")
	return exitCode(2)
}

// runArtifact executes a paper-artifact campaign (internal/artifact):
// parse + validate the declarative config, run the grid once per
// repeat (streaming raw rows to raw.csv as repeats complete), then
// write the grouped analysis artifacts. Output bytes are independent
// of -parallel and of wall-clock time.
func runArtifact(cfgPath, outDir string, parallel int) error {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return err
	}
	cfg, err := artifact.ParseConfig(data)
	if err != nil {
		return err
	}
	if outDir == "" {
		outDir = filepath.Join(filepath.Dir(cfgPath), cfg.Name)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	ro := artifact.RunOptions{Parallel: parallel, Log: os.Stderr}
	// Stream the raw rows as each repeat completes; WriteDir rewrites
	// the same bytes at the end, so an interrupted campaign still
	// leaves its completed repeats on disk.
	raw, err := os.Create(filepath.Join(outDir, artifact.RawCSVName))
	if err != nil {
		return err
	}
	ro.RawOut = raw
	start := time.Now()
	out, runErr := artifact.RunCampaign(cfg, ro)
	if cerr := raw.Close(); runErr == nil && cerr != nil {
		runErr = cerr
	}
	if runErr != nil {
		return runErr
	}
	if err := out.WriteDir(outDir); err != nil {
		return err
	}
	fmt.Printf("artifact: campaign %s: %d scenarios x %d repeats -> %s (max rel std %.4f, %d speedup ratios, %v wall time)\n",
		cfg.Name, out.Analysis.Scenarios, cfg.Repeats, outDir,
		out.Analysis.MaxRelStd, len(out.Analysis.Speedups), time.Since(start).Round(time.Millisecond))
	return nil
}

// parseNodeList parses the -nodes sweep flag into topology.Grid node
// counts, rejecting sizes the grid generator cannot build.
func parseNodeList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -nodes entry %q", part)
		}
		if n < 1 || n > topology.MaxNodes {
			return nil, fmt.Errorf("-nodes entry %d unsupported (topology.Grid builds 1..%d nodes)", n, topology.MaxNodes)
		}
		out = append(out, n)
	}
	return out, nil
}

// listFamilies enumerates the registered scenario families with their
// scenario counts (full and -quick) and one-line descriptions, so the
// grid is discoverable without reading internal/exp.
func listFamilies(w io.Writer, opts exp.Options) error {
	total, totalQuick := 0, 0
	for _, name := range exp.Families() {
		full := opts
		full.Quick = false
		fullScs, err := exp.Scenarios([]string{name}, full)
		if err != nil {
			return err
		}
		trim := opts
		trim.Quick = true
		trimmed, err := exp.Scenarios([]string{name}, trim)
		if err != nil {
			return err
		}
		total += len(fullScs)
		totalQuick += len(trimmed)
		fmt.Fprintf(w, "%-13s %4d scenarios (%3d quick)  %s\n",
			name, len(fullScs), len(trimmed), exp.Describe(name))
	}
	fmt.Fprintf(w, "%-13s %4d scenarios (%3d quick)\n", "total", total, totalQuick)
	return nil
}

// runGrid expands the requested families and executes them through the
// concurrent runner, rendering in the requested format. scenario
// filters to one exact scenario ID; trace additionally records that
// run's telemetry stream as chrome-trace JSON.
func runGrid(families string, parallel int, format, scenario, trace string, opts exp.Options) error {
	var names []string
	if families != "" {
		for _, n := range strings.Split(families, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	switch format {
	case "table", "csv", "json":
	default:
		return fmt.Errorf("unknown -format %q (want table, csv or json)", format)
	}
	scs, err := exp.Scenarios(names, opts)
	if err != nil {
		return err
	}
	if scenario != "" {
		kept := scs[:0]
		for _, s := range scs {
			if s.ID == scenario {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			return fmt.Errorf("no scenario with ID %q (check -families/-quick/-nodes)", scenario)
		}
		scs = kept
	}
	if len(scs) == 0 {
		return fmt.Errorf("no scenarios generated (the requested -families need more than the given -nodes)")
	}

	var rec *telemetry.Recorder
	if trace != "" {
		if len(scs) != 1 {
			return fmt.Errorf("-trace needs exactly one scenario, have %d (narrow with -scenario)", len(scs))
		}
		// One scenario, one System: serialize and hook its bus. The
		// observer is process-global, so clear it before returning.
		parallel = 1
		numamig.SetSystemObserver(func(sys *numamig.System) {
			rec = telemetry.Record(sys.Bus())
		})
		defer numamig.SetSystemObserver(nil)
	}

	start := time.Now()
	results := exp.Runner{Parallel: parallel}.Run(scs)

	if trace != "" {
		if rec == nil {
			return fmt.Errorf("-trace: the scenario built no simulated system")
		}
		f, err := os.Create(trace)
		if err != nil {
			return err
		}
		if err := rec.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "numabench: wrote %d trace events to %s\n", len(rec.Events), trace)
	}
	failed := 0
	for _, r := range results {
		if r.Err != "" {
			failed++
		}
	}
	switch format {
	case "json":
		if err := exp.WriteJSON(os.Stdout, results); err != nil {
			return err
		}
	case "csv":
		exp.WriteCSV(os.Stdout, results)
	default: // table
		exp.Table(results).Write(os.Stdout)
		fmt.Printf("# (%d scenarios, %d failed, %v wall time)\n",
			len(results), failed, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failed, len(results))
	}
	return nil
}
