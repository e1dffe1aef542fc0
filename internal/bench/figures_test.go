package bench

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"numamig/internal/exp"
)

// The paper's figures and tables are exp families; these smoke tests
// run each one's quick cells end to end through the exp registry and
// check the series each figure plots.

var paperFigures = []string{"blas1", "exthuge", "extreplica", "fig4", "fig5", "fig6a", "fig6b", "fig7", "fig8", "policies", "table1"}

// runFigure runs every quick cell of one paper family and returns the
// results grouped by series (the ID's variant tokens) in first-seen
// order.
func runFigure(t *testing.T, family string) ([]string, map[string][]exp.Result) {
	t.Helper()
	scs, err := exp.Scenarios([]string{family}, exp.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) == 0 {
		t.Fatalf("%s: no cells", family)
	}
	var order []string
	bySeries := map[string][]exp.Result{}
	for _, s := range scs {
		r := exp.RunScenario(s)
		if r.Err != "" {
			t.Fatalf("%s: %s", s.ID, r.Err)
		}
		if r.SimSeconds <= 0 || r.MBps <= 0 {
			t.Fatalf("%s: sim_seconds=%v mbps=%v", s.ID, r.SimSeconds, r.MBps)
		}
		series := seriesOf(s)
		if _, ok := bySeries[series]; !ok {
			order = append(order, series)
		}
		bySeries[series] = append(bySeries[series], r)
	}
	return order, bySeries
}

// seriesOf strips the family prefix and the /p<pages>/n<nodes> suffix
// off a paper cell's ID.
func seriesOf(s exp.Scenario) string {
	id := strings.TrimPrefix(s.ID, s.Family+"/")
	return strings.TrimSuffix(id, fmt.Sprintf("/p%d/n%d", s.Pages, s.Nodes))
}

func TestExperimentsRegistryComplete(t *testing.T) {
	fams := exp.Families()
	for _, id := range paperFigures {
		if !slices.Contains(fams, id) {
			t.Errorf("paper figure %s is not a registered family (have %v)", id, fams)
		}
		if exp.Describe(id) == "" {
			t.Errorf("paper figure %s has no description", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := exp.Scenarios([]string{"nope"}, exp.Options{Quick: true}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	r := exp.RunScenario(exp.Scenario{ID: "fig4/nope/p64/n4", Family: "fig4", Nodes: 4, Pages: 64})
	if r.Err == "" {
		t.Fatal("unknown fig4 cell ran")
	}
}

func TestFigure4Smoke(t *testing.T) {
	series, _ := runFigure(t, "fig4")
	if len(series) != 4 {
		t.Fatalf("series = %v", series)
	}
	joined := strings.Join(series, " ")
	for _, name := range []string{"memcpy", "migrate_pages", "move_pages", "unpatched"} {
		if !strings.Contains(joined, name) {
			t.Fatalf("missing %q in %v", name, series)
		}
	}
}

func TestFigure5And6Smoke(t *testing.T) {
	if series, _ := runFigure(t, "fig5"); len(series) != 3 {
		t.Fatalf("fig5 series = %v", series)
	}
	for _, fam := range []string{"fig6a", "fig6b"} {
		series, by := runFigure(t, fam)
		if len(series) == 0 {
			t.Fatalf("empty %s", fam)
		}
		// Each cell is one cost category's share of its variant's total.
		for _, s := range series {
			for _, r := range by[s] {
				if r.CostSharePct < 0 || r.CostSharePct > 100 {
					t.Fatalf("%s: cost share %v%%", r.ID, r.CostSharePct)
				}
			}
		}
	}
}

func TestFigure7Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	series, _ := runFigure(t, "fig7")
	if len(series) != 8 { // sync/lazy x 1..4 threads
		t.Fatalf("series = %v", series)
	}
}

func TestTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	series, by := runFigure(t, "table1")
	// The Improvement column is the static/nexttouch speedup of each
	// (block size, matrix size) row, so every static cell needs its
	// next-touch partner and the two policies alternate.
	if len(series) == 0 || len(series)%2 != 0 {
		t.Fatalf("series = %v", series)
	}
	for i := 0; i < len(series); i += 2 {
		st, nt := series[i], series[i+1]
		block := strings.TrimPrefix(st, "static/")
		if block == st || nt != "nexttouch/"+block {
			t.Fatalf("series %q, %q are not a static/nexttouch pair", st, nt)
		}
		if len(by[st]) != len(by[nt]) {
			t.Fatalf("%s: static %d rows, nexttouch %d", block, len(by[st]), len(by[nt]))
		}
		for j := range by[st] {
			if by[st][j].Pages != by[nt][j].Pages {
				t.Fatalf("%s has no nexttouch partner", by[st][j].ID)
			}
		}
	}
}

func TestFigure8AndBLAS1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	if series, _ := runFigure(t, "fig8"); len(series) != 3 {
		t.Fatalf("fig8 series = %v", series)
	}
	if series, _ := runFigure(t, "blas1"); len(series) != 2 {
		t.Fatalf("blas1 series = %v", series)
	}
}

func TestExtensionExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	if series, _ := runFigure(t, "exthuge"); len(series) != 2 {
		t.Fatalf("exthuge series = %v", series)
	}
	if series, _ := runFigure(t, "extreplica"); len(series) != 2 {
		t.Fatalf("extreplica series = %v", series)
	}
	if series, _ := runFigure(t, "policies"); len(series) != 4 {
		t.Fatalf("policies series = %v", series)
	}
}

func TestRunAllIDsViaRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	scs, err := exp.Scenarios([]string{"fig4", "fig5", "fig6a", "fig6b"}, exp.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range scs {
		if r := exp.RunScenario(s); r.Err != "" {
			t.Fatalf("%s: %s", s.ID, r.Err)
		}
		seen[s.Family] = true
	}
	if len(seen) != 4 {
		t.Fatalf("families run = %v", seen)
	}
}
