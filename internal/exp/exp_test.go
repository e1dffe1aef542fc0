package exp

import (
	"strings"
	"testing"

	"numamig/internal/report"
)

func TestFamiliesRegistered(t *testing.T) {
	fams := Families()
	want := []string{"autonuma", "blas1", "exthuge", "extreplica", "fig4", "fig5", "fig6a", "fig6b",
		"fig7", "fig8", "migration", "policies", "pressure", "replication", "scale", "serve", "table1",
		"tiered", "tiering"}
	if len(fams) != len(want) {
		t.Fatalf("families = %v, want %v", fams, want)
	}
	for i, n := range want {
		if fams[i] != n {
			t.Fatalf("families = %v, want %v", fams, want)
		}
		if Describe(n) == "" {
			t.Fatalf("family %q has no description", n)
		}
	}
}

func TestScenariosUnknownFamily(t *testing.T) {
	if _, err := Scenarios([]string{"nope"}, Options{}); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestGridCoversAllDimensions(t *testing.T) {
	scs, err := Scenarios([]string{"migration"}, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// quick: 2 node counts x 2 sizes x (sync + lazy-user with both
	// strategies, lazy-kernel once — the patch cannot affect it).
	if len(scs) != 20 {
		t.Fatalf("quick migration grid has %d scenarios, want 20", len(scs))
	}
	ids := map[string]bool{}
	modes := map[string]bool{}
	patched := map[bool]bool{}
	for _, s := range scs {
		if ids[s.ID] {
			t.Fatalf("duplicate scenario id %q", s.ID)
		}
		ids[s.ID] = true
		modes[s.Mode] = true
		patched[s.Patched] = true
	}
	if len(modes) != 3 || len(patched) != 2 {
		t.Fatalf("grid misses dimensions: modes=%v patched=%v", modes, patched)
	}
}

func TestRunScenarioUnknownFamilyAndMode(t *testing.T) {
	if r := RunScenario(Scenario{Family: "nope"}); r.Err == "" {
		t.Fatal("unknown family ran")
	}
	if r := RunScenario(Scenario{Family: "migration", Mode: "bogus", Pages: 1, Nodes: 2, Seed: 1}); r.Err == "" {
		t.Fatal("unknown mode ran")
	}
	if r := RunScenario(Scenario{ID: "fig4/memcpy/p3/n4", Family: "fig4", Pages: 3, Nodes: 4, Seed: 1}); r.Err == "" {
		t.Fatal("paper cell outside the figure's table ran")
	}
}

// TestDeterministicAcrossParallelism is the harness's core guarantee:
// the same scenarios and seeds produce byte-identical JSON whatever the
// worker count, because every scenario runs its own simulated system.
func TestDeterministicAcrossParallelism(t *testing.T) {
	scs, err := Scenarios(nil, Options{Quick: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	serial := Runner{Parallel: 1}.Run(scs)
	parallel := Runner{Parallel: 8}.Run(scs)

	j1, err := report.JSONString(serial)
	if err != nil {
		t.Fatal(err)
	}
	j8, err := report.JSONString(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j8 {
		t.Fatalf("parallel 1 vs 8 outputs differ:\n%s\nvs\n%s", j1, j8)
	}

	var c1, c8 strings.Builder
	WriteCSV(&c1, serial)
	WriteCSV(&c8, parallel)
	if c1.String() != c8.String() {
		t.Fatal("parallel 1 vs 8 CSV outputs differ")
	}

	// And the run actually did something everywhere.
	for _, r := range serial {
		if r.Err != "" {
			t.Fatalf("scenario %s failed: %s", r.ID, r.Err)
		}
		if r.SimSeconds <= 0 || r.MBps <= 0 {
			t.Fatalf("scenario %s has empty metrics: %+v", r.ID, r)
		}
	}
}

func TestMigrationScenarioPhysics(t *testing.T) {
	base := Scenario{Family: "migration", Pages: 1024, Nodes: 2, Seed: 1}

	syncP := base
	syncP.Mode = "sync"
	syncP.Patched = true
	syncU := syncP
	syncU.Patched = false
	lazyK := base
	lazyK.Mode = "lazy-kernel"
	lazyK.Patched = true

	rp := RunScenario(syncP)
	ru := RunScenario(syncU)
	rk := RunScenario(lazyK)
	for _, r := range []Result{rp, ru, rk} {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.ID, r.Err)
		}
		if r.PagesMoved != uint64(base.Pages) {
			t.Fatalf("%s moved %d pages, want %d", r.ID, r.PagesMoved, base.Pages)
		}
	}
	// The paper's headline: the unpatched syscall is measurably slower,
	// and the kernel next-touch path does not care about the patch.
	if ru.SimSeconds <= rp.SimSeconds {
		t.Fatalf("unpatched sync (%v s) should be slower than patched (%v s)", ru.SimSeconds, rp.SimSeconds)
	}
	lazyKU := lazyK
	lazyKU.Patched = false
	rku := RunScenario(lazyKU)
	if rku.SimSeconds != rk.SimSeconds {
		t.Fatalf("lazy-kernel should ignore the patch flag: %v vs %v", rku.SimSeconds, rk.SimSeconds)
	}
}

// TestAutoNUMAScenarioTradeoffs checks the acceptance envelope of the
// autonuma family: transparent balancing must clearly beat static
// placement on the phase-shifting workload, and stay within ~10% of
// the best manual next-touch policy on the paper's single-rotation
// scenario (the pure price of transparency).
func TestAutoNUMAScenarioTradeoffs(t *testing.T) {
	run := func(mode, wl string) Result {
		r := RunScenario(Scenario{
			ID: mode + "/" + wl, Family: "autonuma", Patched: true,
			Mode: mode, Pages: 1024, Nodes: 4, Seed: 1, Workload: wl,
		})
		if r.Err != "" {
			t.Fatalf("%s on %s: %s", mode, wl, r.Err)
		}
		return r
	}

	// Phase-shifting: autonuma beats static placement decisively.
	auto := run("autonuma", "phases")
	static := run("off", "phases")
	if auto.SimSeconds >= static.SimSeconds {
		t.Fatalf("autonuma (%v s) should beat static (%v s) on the phase-shifting workload",
			auto.SimSeconds, static.SimSeconds)
	}
	if auto.NumaHints == 0 || auto.PagesMoved == 0 {
		t.Fatalf("autonuma did not balance: hints=%d moved=%d", auto.NumaHints, auto.PagesMoved)
	}
	if static.NumaHints != 0 || static.PagesMoved != 0 {
		t.Fatalf("static run shows balancing activity: hints=%d moved=%d",
			static.NumaHints, static.PagesMoved)
	}

	// Single rotation: within ~25% of the best manual policy. The
	// last-toucher filter costs one extra scan round per page here (a
	// page's first fault only records history; the second consecutive
	// fault promotes), which is the price of damping shared-page
	// ping-pong on workloads that alternate touchers.
	autoRot := run("autonuma", "rotate1")
	best := run("sync", "rotate1").SimSeconds
	for _, mode := range []string{"lazy-kernel", "lazy-user"} {
		if s := run(mode, "rotate1").SimSeconds; s < best {
			best = s
		}
	}
	if autoRot.SimSeconds > best*1.25 {
		t.Fatalf("autonuma rotate1 (%v s) is %.1f%% over best manual (%v s), want <= 25%%",
			autoRot.SimSeconds, (autoRot.SimSeconds/best-1)*100, best)
	}
}

// TestPressureScenarioPhysics pins the pressure family's acceptance
// envelope: with demotion the hot set localizes on the overcommitted
// node; without it the hot set stays remote; allocation exhaustion
// never surfaces as an error in either cell.
func TestPressureScenarioPhysics(t *testing.T) {
	run := func(mode string, demotion bool) Result {
		r := RunScenario(Scenario{
			ID: "p", Family: "pressure", Patched: true, Mode: mode,
			Pages: 1024, Nodes: 4, Seed: 1,
			Overcommit: 1.5, Imbalance: 1.0, Demotion: demotion,
		})
		if r.Err != "" {
			t.Fatalf("%s demotion=%v: %s", mode, demotion, r.Err)
		}
		return r
	}
	with := run("sync", true)
	without := run("sync", false)
	if with.HotLocal < 0.9 || without.HotLocal > 0.2 {
		t.Fatalf("demotion should gate hot locality: with=%.2f without=%.2f",
			with.HotLocal, without.HotLocal)
	}
	if with.Demoted == 0 || without.Demoted != 0 {
		t.Fatalf("demotion counters wrong: with=%d without=%d", with.Demoted, without.Demoted)
	}
	if with.SimSeconds >= without.SimSeconds {
		t.Fatalf("demotion should beat churn: %v vs %v s", with.SimSeconds, without.SimSeconds)
	}
	off := run("off", true)
	if off.HotLocal > 0.2 {
		t.Fatalf("demotion alone localized the hot set: %.2f", off.HotLocal)
	}
}

// TestTieringScenarioPhysics pins the tiering family's acceptance
// envelope: the rotating hot set ping-pongs (promote_demote_flips > 0)
// without promotion hysteresis and stops with it, strictly — while
// locality, demotion throughput and the strict-bind nodemask invariant
// hold in both cells (the runner reports a mask escape as Err).
func TestTieringScenarioPhysics(t *testing.T) {
	run := func(hyst bool) Result {
		suffix := "nohyst"
		if hyst {
			suffix = "hyst"
		}
		r := RunScenario(Scenario{
			ID: "tiering/" + suffix, Family: "tiering", Patched: true,
			Mode: "autonuma", Pages: 1024, Nodes: 4, Seed: 1,
			Demotion: true, Hysteresis: hyst,
		})
		if r.Err != "" {
			t.Fatalf("hysteresis=%v: %s", hyst, r.Err)
		}
		if r.Demoted == 0 || r.NumaHints == 0 {
			t.Fatalf("hysteresis=%v: interplay never ran: demoted=%d hints=%d",
				hyst, r.Demoted, r.NumaHints)
		}
		if r.HotLocal < 0.7 {
			t.Fatalf("hysteresis=%v: final hot window only %.2f local", hyst, r.HotLocal)
		}
		return r
	}
	with := run(true)
	without := run(false)
	if without.Flips == 0 {
		t.Fatal("no flips without hysteresis: the workload exhibits no ping-pong to damp")
	}
	if with.Flips >= without.Flips {
		t.Fatalf("hysteresis must strictly reduce flips: %d with vs %d without",
			with.Flips, without.Flips)
	}
}

func TestReplicationScenarioHelps(t *testing.T) {
	st := RunScenario(Scenario{ID: "s", Family: "replication", Mode: "static", Pages: 256, Nodes: 4, Seed: 1, Patched: true})
	rp := RunScenario(Scenario{ID: "r", Family: "replication", Mode: "replicated", Pages: 256, Nodes: 4, Seed: 1, Patched: true})
	if st.Err != "" || rp.Err != "" {
		t.Fatalf("errs: %q %q", st.Err, rp.Err)
	}
	if rp.SimSeconds >= st.SimSeconds {
		t.Fatalf("replicated sweeps (%v s) should beat static (%v s) with 4 reader nodes", rp.SimSeconds, st.SimSeconds)
	}
	if rp.RemoteMB >= st.RemoteMB {
		t.Fatalf("replication should cut remote traffic: %v MB vs %v MB", rp.RemoteMB, st.RemoteMB)
	}
}
