// Command artifactcheck validates a paper-artifact directory against
// its campaign config: the raw CSV schema must agree with
// exp.Columns(), the row set must cover exactly the config's scenario
// expansion for every repeat (with seeds matching the seed-derivation
// contract and no scenario errors), and the committed summary.json and
// tables.md must byte-match a recomputation from the raw rows — so a
// stale, truncated or hand-edited artifact fails CI.
//
// Usage:
//
//	artifactcheck -config artifacts/fig7.json [-dir artifacts/fig7]
//
// The directory defaults to <config dir>/<campaign name>. Exit status
// is non-zero on any violation.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"numamig/internal/artifact"
	"numamig/internal/exp"
)

func main() {
	cfgPath := flag.String("config", "", "campaign config JSON (required)")
	dir := flag.String("dir", "", "artifact directory (default: <config dir>/<campaign name>)")
	flag.Parse()
	if *cfgPath == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: artifactcheck -config <campaign.json> [-dir <artifact dir>]")
		os.Exit(2)
	}
	if err := check(*cfgPath, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "artifactcheck:", err)
		os.Exit(1)
	}
}

func check(cfgPath, dir string) error {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return err
	}
	cfg, err := artifact.ParseConfig(data)
	if err != nil {
		return err
	}
	if dir == "" {
		dir = filepath.Join(filepath.Dir(cfgPath), cfg.Name)
	}

	// 1. Raw CSV: header must agree with the live schema, rows must
	// parse (ReadRawCSV enforces both).
	raw, err := os.ReadFile(filepath.Join(dir, artifact.RawCSVName))
	if err != nil {
		return err
	}
	rows, err := artifact.ReadRawCSV(bytes.NewReader(raw))
	if err != nil {
		return err
	}

	// 2. Coverage: the rows must be exactly the config's scenario
	// expansion, repeat by repeat, in order — no missing, duplicated,
	// reordered or extra scenarios.
	if err := checkCoverage(&cfg, rows); err != nil {
		return err
	}

	// 3. Analysis: recompute the grouped statistics from the raw rows.
	// Analyze enforces the rest of the contract (repeat completeness,
	// seed derivation, empty err column, the tolerance bound).
	an, err := artifact.Analyze(&cfg, rows)
	if err != nil {
		return err
	}

	// 4. Derived artifacts must byte-match the recomputation.
	if err := compareDerived(&cfg, an, dir); err != nil {
		return err
	}

	fmt.Printf("artifactcheck: %s ok — %d rows, %d cells, %d repeats, %d speedup ratios, max rel std %.4f\n",
		cfg.Name, an.RowCount, an.Scenarios, cfg.Repeats, len(an.Speedups), an.MaxRelStd)
	return nil
}

// checkCoverage verifies the row sequence equals the config's
// expansion: for each repeat r, the family scenario lists generated at
// that repeat's derived seed, in generation order.
func checkCoverage(cfg *artifact.Config, rows []artifact.Row) error {
	idCol := -1
	for i, n := range exp.ColumnNames() {
		if n == "id" {
			idCol = i
		}
	}
	ri := 0
	for r := 0; r < cfg.Repeats; r++ {
		opts := exp.Options{
			Quick:        cfg.Quick,
			Seed:         cfg.SeedFor(r),
			NodeList:     cfg.Nodes,
			CoresPerNode: cfg.CoresPerNode,
		}
		scs, err := exp.Scenarios(cfg.Families, opts)
		if err != nil {
			return err
		}
		for _, s := range scs {
			if ri >= len(rows) {
				return fmt.Errorf("raw csv ends early: repeat %d scenario %q missing", r, s.ID)
			}
			row := &rows[ri]
			if row.Repeat != r || row.Cells[idCol] != s.ID {
				return fmt.Errorf("raw csv row %d is (repeat %d, %q), expansion says (repeat %d, %q)",
					ri, row.Repeat, row.Cells[idCol], r, s.ID)
			}
			ri++
		}
	}
	if ri != len(rows) {
		return fmt.Errorf("raw csv has %d extra rows beyond the %d the config expands to", len(rows)-ri, ri)
	}
	return nil
}

// compareDerived re-renders summary.json and tables.md from the
// recomputed analysis and byte-compares them with the files on disk.
func compareDerived(cfg *artifact.Config, an *artifact.Analysis, dir string) error {
	outputs := map[string]bool{}
	if len(cfg.Outputs) == 0 {
		outputs[artifact.OutJSON], outputs[artifact.OutMD] = true, true
	} else {
		for _, o := range cfg.Outputs {
			outputs[o] = true
		}
	}
	if outputs[artifact.OutJSON] {
		want, err := artifact.RenderSummary(an)
		if err != nil {
			return err
		}
		if err := compareFile(filepath.Join(dir, artifact.SummaryName), want); err != nil {
			return err
		}
	}
	if outputs[artifact.OutMD] {
		want, err := artifact.RenderTables(cfg, an)
		if err != nil {
			return err
		}
		if err := compareFile(filepath.Join(dir, artifact.TablesName), want); err != nil {
			return err
		}
	}
	return nil
}

func compareFile(path string, want []byte) error {
	got, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s does not match recomputation from raw rows (%d vs %d bytes) — regenerate with numabench -artifact",
			path, len(got), len(want))
	}
	return nil
}
