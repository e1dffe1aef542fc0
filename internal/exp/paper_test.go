package exp

import (
	"math"
	"testing"

	"numamig/internal/kern"
	"numamig/internal/sim"
	"numamig/internal/workload"
)

var paperFamilies = []string{"blas1", "exthuge", "extreplica", "fig4", "fig5", "fig6a", "fig6b", "fig7", "fig8", "policies", "table1"}

// TestPaperFamilyCells pins each paper family's sweep to the figure it
// reproduces: series x x-axis cell counts at quick and full size, unique
// IDs, every cell on the paper's 4-node host, and no cells when the
// options leave that host out.
func TestPaperFamilyCells(t *testing.T) {
	want := map[string][2]int{ // quick, full
		"fig4":       {4 * 5, 4 * 8},
		"fig5":       {3 * 3, 3 * 6},
		"fig6a":      {5 * 3, 5 * 6},
		"fig6b":      {3 * 3, 3 * 6},
		"fig7":       {8 * 3, 8 * 10},
		"table1":     {2 * 4, 2 * 11},
		"fig8":       {3 * 4, 3 * 5},
		"blas1":      {2 * 2, 2 * 3},
		"exthuge":    {2 * 2, 2 * 3},
		"extreplica": {2 * 2, 2 * 2},
		"policies":   {4, 4},
	}
	for _, fam := range paperFamilies {
		for i, quick := range []bool{true, false} {
			scs, err := Scenarios([]string{fam}, Options{Quick: quick})
			if err != nil {
				t.Fatal(err)
			}
			if len(scs) != want[fam][i] {
				t.Errorf("%s quick=%v: %d cells, want %d", fam, quick, len(scs), want[fam][i])
			}
			ids := map[string]bool{}
			for _, s := range scs {
				if ids[s.ID] || s.Nodes != paperNodes || s.Pages <= 0 {
					t.Errorf("%s: bad or duplicate cell %+v", fam, s)
				}
				ids[s.ID] = true
			}
		}
		for _, o := range []Options{{NodeList: []int{2, 8}}, {CoresPerNode: 2}} {
			if scs, _ := Scenarios([]string{fam}, o); len(scs) != 0 {
				t.Errorf("%s generated %d cells off the paper host (%+v)", fam, len(scs), o)
			}
		}
		if scs, _ := Scenarios([]string{fam}, Options{NodeList: []int{2, 4}, CoresPerNode: 4}); len(scs) != want[fam][1] {
			t.Errorf("%s: a node list with 4 should keep the full sweep, got %d cells", fam, len(scs))
		}
	}
}

// TestPaperCellsMatchDrivers cross-checks the ID -> parameter mapping:
// one cell of every paper family, run through RunScenario, must report
// exactly (bit for bit) what a direct call of its workload driver at
// the parameters the ID names returns. A swapped series, a wrong size
// conversion or a dropped seed fails here.
func TestPaperCellsMatchDrivers(t *testing.T) {
	const seed = 3
	must := func(v float64, err error) float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	secs := func(d sim.Time, err error) float64 { t.Helper(); return must(d.Seconds(), err) }
	share := func(pages int, v workload.NTVariant, cats []string, i int) float64 {
		_, acct, err := workload.NextTouch(pages, v)
		if err != nil {
			t.Fatal(err)
		}
		var tot sim.Time
		for _, c := range cats {
			tot += acct.Get(c)
		}
		return 100 * float64(acct.Get(cats[i])) / float64(tot)
	}
	userCats := []string{kern.CatMovePagesCopy, kern.CatMovePagesCtl, kern.CatMprotectRest, kern.CatFaultSignal, kern.CatMprotectMark}
	kernelCats := []string{kern.CatNTCopy, kern.CatNTCtl, kern.CatMadvise}

	cases := []struct {
		id     string
		quick  bool
		metric func(r *Result) float64
		direct func() float64
	}{
		{"fig4/move_pages/unpatched/p64/n4", false, mbpsOf, func() float64 {
			return must(workload.SyncMigration(64, workload.MovePagesUnpatched))
		}},
		{"fig5/user/unpatched/p64/n4", true, mbpsOf, func() float64 {
			v, _, err := workload.NextTouch(64, workload.UserNTUnpatched)
			return must(v, err)
		}},
		{"fig6a/move_pages-control/p64/n4", true, costOf, func() float64 {
			return share(64, workload.UserNTPatched, userCats, 1)
		}},
		{"fig6b/madvise/p1024/n4", true, costOf, func() float64 {
			return share(1024, workload.KernelNT, kernelCats, 2)
		}},
		{"fig7/lazy/t3/p1024/n4", true, mbpsOf, func() float64 {
			return must(workload.ThreadedMigration(1024, 3, true))
		}},
		{"table1/nexttouch/b256/p4096/n4", true, secondsOf, func() float64 {
			r, err := workload.RunLU(workload.LUConfig{N: 2048, B: 256, Policy: workload.LUNextTouch, Seed: seed})
			return must(r.Duration.Seconds(), err)
		}},
		{"fig8/kernel-nt/p64/n4", true, secondsOf, func() float64 {
			return secs(workload.RunBLAS3(workload.BLAS3Config{N: 256, Policy: workload.B3KernelNT, Seed: seed}))
		}},
		{"blas1/nexttouch/p256/n4", true, secondsOf, func() float64 {
			return secs(workload.RunBLAS1(workload.BLAS1Config{N: 1 << 18, NextTouch: true, Seed: seed}))
		}},
		{"exthuge/huge/p2048/n4", true, mbpsOf, func() float64 {
			_, huge, err := workload.HugePageMigration(8)
			return must(huge, err)
		}},
		{"extreplica/replicated/s4/p1024/n4", true, secondsOf, func() float64 {
			_, rp, err := workload.ReplicationStudy(4, 4)
			return secs(rp, err)
		}},
		{"policies/node0-nt/s6/p1024/n4", true, secondsOf, func() float64 {
			return secs(workload.PolicyStudy(4, 6, workload.PolNextTouchFix))
		}},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		scs, err := Scenarios(paperFamilies, Options{Quick: c.quick, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var sc *Scenario
		for i := range scs {
			if scs[i].ID == c.id {
				sc = &scs[i]
			}
		}
		if sc == nil {
			t.Fatalf("%s: not a generated cell (quick=%v)", c.id, c.quick)
		}
		covered[sc.Family] = true
		r := RunScenario(*sc)
		if r.Err != "" {
			t.Fatalf("%s: %s", c.id, r.Err)
		}
		got, want := c.metric(&r), c.direct()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: family reports %v, driver returns %v", c.id, got, want)
		}
	}
	for _, fam := range paperFamilies {
		if !covered[fam] {
			t.Errorf("family %s has no cross-checked cell", fam)
		}
	}
}

func mbpsOf(r *Result) float64    { return r.MBps }
func secondsOf(r *Result) float64 { return r.SimSeconds }
func costOf(r *Result) float64    { return r.CostSharePct }
