package exp

import (
	"fmt"
	"slices"
	"strings"

	"numamig/internal/kern"
	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/workload"
)

// The paper families reproduce the evaluation of the source paper
// (Figs. 4-8, Table 1, the §4.5 BLAS1 result) and its three §6
// extensions, one family per figure, each named after the figure. A
// family is one cell table: every cell names its series as variant
// tokens, its x axis as a buffer size in 4 KiB pages, and the
// internal/workload driver call that measures it. The runner finds a
// scenario's cell by ID in the same table, so the generated grid and
// the measured parameters cannot drift apart.
//
// The drivers build the paper's 4-node, 16-core Opteron host, so these
// families run at n4 only: a -nodes list without 4, or a -cores-per-node
// other than 4, leaves them out. SyncMigration, NextTouch,
// ThreadedMigration, HugePageMigration, ReplicationStudy and
// PolicyStudy take no seed (they always simulate seed 1); RunLU,
// RunBLAS3 and RunBLAS1 run under the scenario's seed.
//
// A driver reports either a throughput or a duration; the runner
// derives the other over the cell's buffer (Pages x 4 KiB), so every
// cell carries both mbps and sim_seconds.

// paperNodes is the node count of the paper's host.
const paperNodes = 4

// paperCell is one cell of a paper family's table.
type paperCell struct {
	variant string // series tokens, '/'-separated
	pages   int    // x axis: buffer size in 4 KiB pages
	run     func(seed int64, r *Result) error
}

func (c paperCell) id(family string) string {
	return fmt.Sprintf("%s/%s/p%d/n%d", family, c.variant, c.pages, paperNodes)
}

// paperHost reports whether the options include the paper's host.
func paperHost(o Options) bool {
	if o.CoresPerNode != 0 && o.CoresPerNode != 4 {
		return false
	}
	if len(o.NodeList) == 0 {
		return true
	}
	for _, n := range o.NodeList {
		if n == paperNodes {
			return true
		}
	}
	return false
}

// registerPaper registers one paper family over its cell table.
func registerPaper(name, desc string, table func(quick bool) []paperCell) {
	Register(Family{
		Name: name,
		Desc: desc,
		Generate: func(o Options) []Scenario {
			if !paperHost(o) {
				return nil
			}
			var out []Scenario
			for _, c := range table(o.Quick) {
				toks := strings.Split(c.variant, "/")
				out = append(out, Scenario{
					ID:      c.id(name),
					Family:  name,
					Patched: !slices.Contains(toks, "unpatched"),
					Mode:    toks[0],
					Pages:   c.pages,
					Nodes:   paperNodes,
					Seed:    o.seed(),
				})
			}
			return out
		},
		Run: func(s Scenario) Result { return runPaper(s, table) },
	})
}

// runPaper measures one paper cell: the cell whose ID matches, from the
// quick or the full table.
func runPaper(s Scenario, table func(quick bool) []paperCell) Result {
	res := Result{Scenario: s}
	for _, quick := range []bool{true, false} {
		for _, c := range table(quick) {
			if c.id(s.Family) != s.ID {
				continue
			}
			if err := c.run(s.Seed, &res); err != nil {
				res.Err = err.Error()
				return res
			}
			bytes := float64(c.pages) * model.PageSize
			if res.SimSeconds == 0 && res.MBps > 0 {
				res.SimSeconds = bytes / res.MBps / 1e6
			}
			if res.MBps == 0 && res.SimSeconds > 0 {
				res.MBps = bytes / res.SimSeconds / 1e6
			}
			return res
		}
	}
	res.Err = fmt.Sprintf("exp: %s has no cell %q", s.Family, s.ID)
	return res
}

// sweep picks a quick or full parameter list.
func sweep[T any](quick bool, q, full []T) []T {
	if quick {
		return q
	}
	return full
}

// matrixPages is the size in pages of an n x n float32 matrix (the
// LU and BLAS drivers' element).
func matrixPages(n int) int { return n * n * 4 / model.PageSize }

// mbPages is the size in pages of mb MiB.
func mbPages(mb int) int { return mb << 20 / model.PageSize }

// costShares returns each category's percent of the listed categories'
// total, so time in unlisted buckets cannot distort the breakdown.
func costShares(a *sim.Acct, cats []string) []float64 {
	out := make([]float64, len(cats))
	var tot sim.Time
	for _, c := range cats {
		tot += a.Get(c)
	}
	if tot == 0 {
		return out
	}
	for i, c := range cats {
		out[i] = 100 * float64(a.Get(c)) / float64(tot)
	}
	return out
}

// nextTouchBreakdown is a Fig. 6 table: one cell per (pages, cost
// category) of one next-touch variant, each carrying the category's
// share of the migration cost. Category names become variant tokens
// with spaces as dashes.
func nextTouchBreakdown(v workload.NTVariant, cats []string) func(bool) []paperCell {
	return func(quick bool) []paperCell {
		var out []paperCell
		for _, p := range sweep(quick, []int{4, 64, 1024}, []int{4, 16, 64, 256, 1024, 4096}) {
			for i, cat := range cats {
				out = append(out, paperCell{strings.ReplaceAll(cat, " ", "-"), p, func(_ int64, r *Result) error {
					mbps, acct, err := workload.NextTouch(p, v)
					if err != nil {
						return err
					}
					r.MBps, r.CostSharePct = mbps, costShares(acct, cats)[i]
					return nil
				}})
			}
		}
		return out
	}
}

func init() {
	registerPaper("fig4", "Fig. 4: memcpy vs migrate_pages vs patched/unpatched move_pages throughput, node 0 -> 1",
		func(quick bool) []paperCell {
			var out []paperCell
			for _, m := range []struct {
				variant string
				method  workload.MigMethod
			}{
				{"memcpy", workload.Memcpy},
				{"migrate_pages", workload.MigratePages},
				{"move_pages/patched", workload.MovePagesPatched},
				{"move_pages/unpatched", workload.MovePagesUnpatched},
			} {
				for _, p := range sweep(quick, []int{1, 16, 256, 1024, 4096}, []int{1, 4, 16, 64, 256, 1024, 4096, 16384}) {
					out = append(out, paperCell{m.variant, p, func(_ int64, r *Result) (err error) {
						r.MBps, err = workload.SyncMigration(p, m.method)
						return err
					}})
				}
			}
			return out
		})

	registerPaper("fig5", "Fig. 5: user-space (patched/unpatched move_pages) vs kernel next-touch throughput, node 0 -> 1",
		func(quick bool) []paperCell {
			var out []paperCell
			for _, v := range []struct {
				variant string
				nt      workload.NTVariant
			}{
				{"user/unpatched", workload.UserNTUnpatched},
				{"user/patched", workload.UserNTPatched},
				{"kernel", workload.KernelNT},
			} {
				for _, p := range sweep(quick, []int{4, 64, 1024}, []int{4, 16, 64, 256, 1024, 4096}) {
					out = append(out, paperCell{v.variant, p, func(_ int64, r *Result) (err error) {
						r.MBps, _, err = workload.NextTouch(p, v.nt)
						return err
					}})
				}
			}
			return out
		})

	registerPaper("fig6a", "Fig. 6a: user-space next-touch cost breakdown, percent per category",
		nextTouchBreakdown(workload.UserNTPatched, []string{
			kern.CatMovePagesCopy, kern.CatMovePagesCtl,
			kern.CatMprotectRest, kern.CatFaultSignal, kern.CatMprotectMark,
		}))

	registerPaper("fig6b", "Fig. 6b: kernel next-touch cost breakdown, percent per category",
		nextTouchBreakdown(workload.KernelNT, []string{kern.CatNTCopy, kern.CatNTCtl, kern.CatMadvise}))

	registerPaper("fig7", "Fig. 7: 1-4 threads on node 1 migrating a node-0 buffer, sync move_pages vs lazy kernel next-touch",
		func(quick bool) []paperCell {
			var out []paperCell
			for _, lazy := range []bool{false, true} {
				mode := map[bool]string{false: "sync", true: "lazy"}[lazy]
				for threads := 1; threads <= 4; threads++ {
					for _, p := range sweep(quick, []int{64, 1024, 16384},
						[]int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}) {
						out = append(out, paperCell{fmt.Sprintf("%s/t%d", mode, threads), p, func(_ int64, r *Result) (err error) {
							r.MBps, err = workload.ThreadedMigration(p, threads, lazy)
							return err
						}})
					}
				}
			}
			return out
		})

	registerPaper("table1", "Table 1: 16-thread LU factorization, static interleaved vs next-touch per iteration, by matrix and block size",
		func(quick bool) []paperCell {
			var out []paperCell
			// The quick rows are the cheap ones, down to the 4096 x 512 row
			// where next-touch starts to win: the all-family tests run
			// every quick cell four times.
			for _, nb := range sweep(quick,
				[][2]int{{2048, 128}, {2048, 256}, {4096, 256}, {4096, 512}},
				[][2]int{{4096, 64}, {4096, 128}, {4096, 256}, {8192, 128}, {8192, 256}, {8192, 512},
					{16384, 256}, {16384, 512}, {16384, 1024}, {32768, 256}, {32768, 512}}) {
				for _, pol := range []struct {
					variant string
					policy  workload.LUPolicy
				}{{"static", workload.LUStatic}, {"nexttouch", workload.LUNextTouch}} {
					variant := fmt.Sprintf("%s/b%d", pol.variant, nb[1])
					out = append(out, paperCell{variant, matrixPages(nb[0]), func(seed int64, r *Result) error {
						lu, err := workload.RunLU(workload.LUConfig{N: nb[0], B: nb[1], Policy: pol.policy, Seed: seed})
						r.SimSeconds, r.PagesMoved = lu.Duration.Seconds(), lu.NTMigrations
						return err
					}})
				}
			}
			return out
		})

	registerPaper("fig8", "Fig. 8: 16 concurrent BLAS3 multiplications, static vs kernel vs user-space next-touch",
		func(quick bool) []paperCell {
			var out []paperCell
			for _, pol := range []struct {
				variant string
				policy  workload.BLAS3Policy
			}{
				{"static", workload.B3Static},
				{"kernel-nt", workload.B3KernelNT},
				{"user-nt", workload.B3UserNT},
			} {
				for _, n := range sweep(quick, []int{128, 256, 512, 1024}, []int{128, 256, 512, 1024, 2048}) {
					out = append(out, paperCell{pol.variant, matrixPages(n), func(seed int64, r *Result) error {
						d, err := workload.RunBLAS3(workload.BLAS3Config{N: n, Policy: pol.policy, Seed: seed})
						r.SimSeconds = d.Seconds()
						return err
					}})
				}
			}
			return out
		})

	registerPaper("blas1", "§4.5: 16 concurrent BLAS1 (DAXPY) streams, static interleaved vs next-touch",
		func(quick bool) []paperCell {
			var out []paperCell
			for _, n := range sweep(quick, []int{1 << 18, 1 << 20}, []int{1 << 18, 1 << 20, 1 << 22}) {
				for _, nt := range []bool{false, true} {
					variant := map[bool]string{false: "static", true: "nexttouch"}[nt]
					// pages: one vector of n float32s
					out = append(out, paperCell{variant, n * 4 / model.PageSize, func(seed int64, r *Result) error {
						d, err := workload.RunBLAS1(workload.BLAS1Config{N: n, NextTouch: nt, Seed: seed})
						r.SimSeconds = d.Seconds()
						return err
					}})
				}
			}
			return out
		})

	registerPaper("exthuge", "§6 extension: 4 KiB move_pages vs 2 MiB huge-page migration throughput, node 0 -> 1",
		func(quick bool) []paperCell {
			var out []paperCell
			for _, mb := range sweep(quick, []int{8, 32}, []int{8, 32, 128}) {
				for _, huge := range []bool{false, true} {
					variant := map[bool]string{false: "small", true: "huge"}[huge]
					out = append(out, paperCell{variant, mbPages(mb), func(_ int64, r *Result) error {
						small, hp, err := workload.HugePageMigration(mb)
						r.MBps = map[bool]float64{false: small, true: hp}[huge]
						return err
					}})
				}
			}
			return out
		})

	registerPaper("extreplica", "§6 extension: 16 threads sweeping one hot node-0 buffer, static vs read-only replicated",
		func(quick bool) []paperCell {
			sweeps := 8
			if quick {
				sweeps = 4
			}
			var out []paperCell
			for _, mb := range []int{4, 16} {
				for _, rep := range []bool{false, true} {
					variant := fmt.Sprintf("%s/s%d", map[bool]string{false: "static", true: "replicated"}[rep], sweeps)
					out = append(out, paperCell{variant, mbPages(mb), func(_ int64, r *Result) error {
						st, rp, err := workload.ReplicationStudy(mb, sweeps)
						r.SimSeconds = map[bool]sim.Time{false: st, true: rp}[rep].Seconds()
						return err
					}})
				}
			}
			return out
		})

	registerPaper("policies", "placement study: 16-thread STREAM triad under first-touch, interleaved, node-0 and node-0 + next-touch placement",
		func(quick bool) []paperCell {
			mb, sweeps := 8, 8
			if quick {
				mb, sweeps = 4, 6
			}
			var out []paperCell
			for _, pol := range []struct {
				variant string
				kind    workload.PolicyKind
			}{
				{"first-touch", workload.PolFirstTouchLocal},
				{"interleaved", workload.PolInterleaved},
				{"node0", workload.PolNode0},
				{"node0-nt", workload.PolNextTouchFix},
			} {
				out = append(out, paperCell{fmt.Sprintf("%s/s%d", pol.variant, sweeps), mbPages(mb), func(_ int64, r *Result) error {
					d, err := workload.PolicyStudy(mb, sweeps, pol.kind)
					r.SimSeconds = d.Seconds()
					return err
				}})
			}
			return out
		})
}
