package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"numamig/internal/sim.(*Fluid).waterfill", "numamig/internal/sim.(*Fluid).Transfer"}, "sim_fluid"},
		{[]string{"numamig/internal/sim.(*Engine).dispatch", "numamig/internal/sim.(*Proc).Sleep"}, "sim_engine"},
		{[]string{"runtime.mallocgc", "runtime.growslice", "numamig/internal/vm.(*Chunk).install"}, "vm"},
		{[]string{"sync.(*Mutex).Lock", "numamig/internal/mem.(*Phys).Alloc"}, "mem"},
		{[]string{"numamig/internal/kern.(*DaemonHub).fire", "numamig/internal/sim.(*Engine).dispatch"}, "kern_daemonhub"},
		{[]string{"numamig/internal/kern.(*kswapd).Poll"}, "kern"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup"}, "runtime_sched"},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "numamig/internal/sim.(*Proc).park"}, "runtime_sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "numamig/internal/migrate.(*Engine).batch"}, "runtime_gc"},
		{[]string{"numamig/internal/topology.(*Machine).bfsFrom"}, "other"},
		{[]string{"main.median", "main.run"}, "other"},
		{[]string{"runtime.memclrNoHeapPointers"}, "other"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestLayerSharesOwnProfile records a CPU profile of the many-flow
// fluid drive and checks the decoder and the attribution on it.
func TestLayerSharesOwnProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < time.Second; {
		driveFluid(256, 512, 1)
	}
	pprof.StopCPUProfile()

	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) < 20 {
		t.Fatalf("only %d samples in a one-second profile", len(p.samples))
	}
	seen := false
	for _, s := range p.samples {
		for _, f := range p.stack(s) {
			if f == "numamig/internal/sim.(*Fluid).Transfer" {
				seen = true
			}
		}
	}
	if !seen {
		t.Error("no sample stack passes through sim.(*Fluid).Transfer")
	}

	shares, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	// Samples the profiler cannot unwind to a Go frame (the race
	// detector's C runtime) land in "other"; of the rest, the fluid solve
	// must take the largest part.
	if attributed := 1 - shares["other"]; attributed <= 0 || shares["sim_fluid"] < attributed/2 {
		t.Errorf("share.sim_fluid = %.3f of %.3f attributed on a fluid-only profile (%v)", shares["sim_fluid"], attributed, shares)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decodeProfile accepted non-gzip input")
	}
}
