package main

import (
	"fmt"
	"time"

	numamig "numamig"
	"numamig/internal/mem"
	"numamig/internal/model"
	"numamig/internal/placement"
	"numamig/internal/sim"
	"numamig/internal/telemetry"
	"numamig/internal/tenancy"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Layer drives time direct calls into one layer's exported functions,
// with inputs shaped like the workloads, built without a full System
// where the layer's API allows it. Each drive reports host nanoseconds
// per call, the median of driveRepeats timed repetitions.

const driveRepeats = 5

// perCall runs rep driveRepeats+1 times, the first as an untimed
// warm-up, and returns the median of its ns-per-call results.
func perCall(rep func() float64) float64 {
	var per []float64
	for r := 0; r <= driveRepeats; r++ {
		if v := rep(); r > 0 {
			per = append(per, v)
		}
	}
	return median(per)
}

// timed runs body once and returns ns per call; body returns how many
// calls it made.
func timed(body func() int) float64 {
	t0 := time.Now()
	n := body()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// timeRepeats is the median ns per call of body.
func timeRepeats(body func() int) float64 {
	return perCall(func() float64 { return timed(body) })
}

// drives runs every layer drive and returns its metrics.
func drives() map[string]float64 {
	m := map[string]float64{
		"sim.handoff_ns":            driveHandoff(8, 2000),
		"fluid.transfer_ns.f4":      driveFluid(4, 4, 256),
		"fluid.transfer_ns.f512":    driveFluid(256, 512, 4),
		"mem.alloc_free_ns":         driveMem(),
		"placement.target_ns.n256":  drivePlacement(256),
		"placement.target_ns.n1024": drivePlacement(1024),
		"telemetry.publish_ns.s0":   drivePublish(0),
		"telemetry.publish_ns.s1":   drivePublish(1),
		"tenancy.charge_ns":         driveTenancy(),
		"migrate.page_ns.patched":   driveMigrate(true),
		"migrate.page_ns.unpatched": driveMigrate(false),
	}
	for k, v := range driveVM() {
		m[k] = v
	}
	return m
}

// driveHandoff: procs sleeping in turn, so every wake hands the
// execution token to another proc. ns per wake.
func driveHandoff(procs, sleeps int) float64 {
	return timeRepeats(func() int {
		eng := sim.NewEngine(1)
		for i := 0; i < procs; i++ {
			eng.Spawn("sleeper", func(p *sim.Proc) {
				for j := 0; j < sleeps; j++ {
					p.Sleep(1)
				}
			})
		}
		eng.MustRun()
		return procs * sleeps
	})
}

// driveFluid: flows concurrent transfers over a grid's links (source
// memory controller, interconnect link, destination memory controller,
// the path of a node-to-next-node copy), each repeated rounds times.
// ns per Transfer call; every call reconfigures the flow rates.
func driveFluid(nodes, flows, rounds int) float64 {
	return timeRepeats(func() int {
		eng := sim.NewEngine(1)
		f := sim.NewFluid(eng)
		mc := make([]*sim.Link, nodes)
		ht := make([]*sim.Link, nodes)
		for i := range mc {
			mc[i] = sim.NewLink(fmt.Sprintf("mc%d", i), 10e9)
			ht[i] = sim.NewLink(fmt.Sprintf("ht%d", i), 4e9)
		}
		for i := 0; i < flows; i++ {
			src, dst := i%nodes, (i+1)%nodes
			eng.Spawn("flow", func(p *sim.Proc) {
				for r := 0; r < rounds; r++ {
					f.Transfer(p, 8*model.PageSize, mc[src], ht[src], mc[dst])
				}
			})
		}
		eng.MustRun()
		return flows * rounds
	})
}

// driveVM: the page-table operations the tiering daemons and the
// access path lead with, on a 4096-page range whose frames alternate
// nodes every 8 pages (churn-sized extents).
func driveVM() map[string]float64 {
	const pages = 4096
	m := topology.Grid(2, 2, 1<<30, 2<<20)
	phys := mem.NewPhys(m, false)
	frames := make([]*mem.Frame, pages)
	for i := range frames {
		f, err := phys.Alloc(topology.NodeID(i / 8 % 2))
		if err != nil {
			panic(err)
		}
		frames[i] = f
	}
	flags := vm.PTEPresent | vm.PTERead | vm.PTEWrite
	build := func() *vm.PageTable {
		pt := vm.NewPageTable()
		for i, f := range frames {
			pt.Install(vm.VPN(i), vm.PTE{Frame: f, Flags: flags})
		}
		return pt
	}
	out := map[string]float64{}
	out["vm.install_ns"] = timeRepeats(func() int {
		build()
		return pages
	})
	tables := make([]*vm.PageTable, 0, 16)
	// ArmRange consumes its input (armed pages are skipped next time),
	// so every repetition arms fresh tables.
	out["vm.arm_range_ns"] = perCall(func() float64 {
		tables = tables[:0]
		for i := 0; i < cap(tables); i++ {
			tables = append(tables, build())
		}
		return timed(func() int {
			for _, pt := range tables {
				pt.ArmRange(0, pages, nil)
			}
			return len(tables)
		})
	})
	pt := build()
	out["vm.extents_ns"] = timeRepeats(func() int {
		const walks = 64
		for i := 0; i < walks; i++ {
			pt.Extents(0, pages, true, func(vm.Ext) bool { return true })
		}
		return walks
	})
	return out
}

// driveMem: one frame allocated and freed, cycling over four nodes.
// ns per Alloc/Free pair.
func driveMem() float64 {
	phys := mem.NewPhys(topology.Grid(4, 4, 1<<30, 2<<20), false)
	return timeRepeats(func() int {
		const n = 1 << 15
		for i := 0; i < n; i++ {
			f, err := phys.Alloc(topology.NodeID(i % 4))
			if err != nil {
				panic(err)
			}
			phys.Free(f)
		}
		return n
	})
}

// drivePlacement: the first-touch decision and allocation on a large
// grid, from every node in turn: Target resolves the local policy,
// AllocPage walks the zonelist in watermark passes. ns per decision
// (the frame is freed again, untimed share included).
func drivePlacement(nodes int) float64 {
	m := topology.Grid(nodes, 2, 1<<30, 2<<20)
	phys := mem.NewPhys(m, false)
	p := model.Default()
	pl := placement.New(m, phys, &p)
	pol := vm.Policy{}
	return timeRepeats(func() int {
		n := 4 * nodes
		for i := 0; i < n; i++ {
			local := topology.NodeID(i % nodes)
			f := pl.AllocPage(pl.Target(pol, vm.VPN(i), local))
			if f == nil {
				panic("placement: no frame")
			}
			phys.Free(f)
		}
		return n
	})
}

// drivePublish: migration-batch events on a bus with subs subscribers.
// ns per Publish.
func drivePublish(subs int) float64 {
	var now sim.Time
	bus := telemetry.NewBus(func() sim.Time { return now })
	var seen int
	for i := 0; i < subs; i++ {
		bus.Subscribe(telemetry.TopicMigrateBatch, func(ev telemetry.Event) { seen += ev.Pages })
	}
	return timeRepeats(func() int {
		const n = 1 << 16
		for i := 0; i < n; i++ {
			now += sim.Time(i & 1)
			bus.Publish(telemetry.Event{Topic: telemetry.TopicMigrateBatch, Node: 0, Dst: 1, Pages: 8})
		}
		return n
	})
}

// driveTenancy: a tenant's 8-page charge, move to the slow tier and
// release. ns per Charge/Move/Release triple.
func driveTenancy() float64 {
	bus := telemetry.NewBus(func() sim.Time { return 0 })
	l := tenancy.NewLedger(bus, func(n topology.NodeID) int { return int(n) })
	t := l.Admit(1, "batch", tenancy.ClassBatch, 1<<20)
	return timeRepeats(func() int {
		const n = 1 << 14
		for i := 0; i < n; i++ {
			l.Charge(t, 0, 8)
			l.Move(t, 0, 1, 8)
			l.Release(t, 1, 8)
		}
		return n
	})
}

// driveMigrate: a 4096-page buffer moved back and forth between two
// nodes with move_pages. The migration engine needs a kernel to run
// in, so this drive builds a System. Host ns per page moved.
func driveMigrate(patched bool) float64 {
	const pages, moves = 4096, 4
	return perCall(func() float64 {
		var ns float64
		sys := numamig.New(numamig.Config{Nodes: 2, Seed: 1})
		err := sys.Run(func(t *numamig.Task) {
			b := numamig.MustAlloc(t, pages*numamig.PageSize, numamig.Policy{})
			if err := b.Prefault(t); err != nil {
				panic(err)
			}
			ns = timed(func() int {
				for i := 0; i < moves; i++ {
					if err := b.MoveTo(t, numamig.NodeID(1-i%2), patched); err != nil {
						panic(err)
					}
				}
				return moves * pages
			})
		})
		if err != nil {
			panic(err)
		}
		return ns
	})
}
