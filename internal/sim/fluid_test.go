package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// expectClose fails unless got is within tol (relative) of want.
func expectClose(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Fatalf("%s = %v, want 0", name, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > tol {
		t.Fatalf("%s = %v, want %v (±%v%%)", name, got, want, tol*100)
	}
}

func TestFluidSingleTransferRate(t *testing.T) {
	e := NewEngine(1)
	f := NewFluid(e)
	l := NewLink("l", 1e9) // 1 GB/s
	var dur Time
	e.Spawn("x", func(p *Proc) {
		start := p.Now()
		f.Transfer(p, 1e6, l) // 1 MB at 1GB/s = 1ms
		dur = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	expectClose(t, "duration", float64(dur), float64(Millisecond), 1e-6)
	if l.Bytes != 1e6 {
		t.Fatalf("link bytes = %v", l.Bytes)
	}
}

func TestFluidTwoTransfersShareLink(t *testing.T) {
	e := NewEngine(1)
	f := NewFluid(e)
	l := NewLink("l", 1e9)
	var d1, d2 Time
	e.Spawn("a", func(p *Proc) {
		s := p.Now()
		f.Transfer(p, 1e6, l)
		d1 = p.Now() - s
	})
	e.Spawn("b", func(p *Proc) {
		s := p.Now()
		f.Transfer(p, 1e6, l)
		d2 = p.Now() - s
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Both share the link: each takes 2ms.
	expectClose(t, "d1", float64(d1), 2*float64(Millisecond), 1e-3)
	expectClose(t, "d2", float64(d2), 2*float64(Millisecond), 1e-3)
}

func TestFluidUnequalJobsWorkConserving(t *testing.T) {
	e := NewEngine(1)
	f := NewFluid(e)
	l := NewLink("l", 1e9)
	var dShort, dLong Time
	e.Spawn("short", func(p *Proc) {
		s := p.Now()
		f.Transfer(p, 0.5e6, l)
		dShort = p.Now() - s
	})
	e.Spawn("long", func(p *Proc) {
		s := p.Now()
		f.Transfer(p, 1.5e6, l)
		dLong = p.Now() - s
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Short: shares until its 0.5MB drains at 0.5GB/s = 1ms.
	expectClose(t, "dShort", float64(dShort), float64(Millisecond), 1e-3)
	// Long: 0.5MB during the shared ms, then 1.0MB alone at 1GB/s = 1ms more.
	expectClose(t, "dLong", float64(dLong), 2*float64(Millisecond), 1e-3)
}

func TestFluidPathBottleneck(t *testing.T) {
	e := NewEngine(1)
	f := NewFluid(e)
	fast := NewLink("fast", 4e9)
	slow := NewLink("slow", 1e9)
	var d Time
	e.Spawn("x", func(p *Proc) {
		s := p.Now()
		f.Transfer(p, 1e6, fast, slow)
		d = p.Now() - s
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	expectClose(t, "duration", float64(d), float64(Millisecond), 1e-6)
}

func TestFluidMaxMinFairnessCrossTraffic(t *testing.T) {
	// Job A uses links L1+L2; job B uses L1 only; job C uses L2 only.
	// L1 cap 1, L2 cap 2 (GB/s). Max-min: A=0.5, B=0.5 on L1;
	// C gets L2 residual = 1.5.
	e := NewEngine(1)
	f := NewFluid(e)
	l1 := NewLink("l1", 1e9)
	l2 := NewLink("l2", 2e9)
	res := map[string]Time{}
	run := func(name string, bytes float64, links ...*Link) {
		e.Spawn(name, func(p *Proc) {
			s := p.Now()
			f.Transfer(p, bytes, links...)
			res[name] = p.Now() - s
		})
	}
	// Large enough that completion-order effects are negligible at start.
	run("A", 0.5e6, l1, l2)
	run("B", 0.5e6, l1)
	run("C", 1.5e6, l2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	expectClose(t, "A", float64(res["A"]), float64(Millisecond), 0.01)
	expectClose(t, "B", float64(res["B"]), float64(Millisecond), 0.01)
	expectClose(t, "C", float64(res["C"]), float64(Millisecond), 0.01)
}

func TestFluidStaggeredArrival(t *testing.T) {
	e := NewEngine(1)
	f := NewFluid(e)
	l := NewLink("l", 1e9)
	var d1 Time
	e.Spawn("first", func(p *Proc) {
		s := p.Now()
		f.Transfer(p, 1e6, l)
		d1 = p.Now() - s
	})
	e.Spawn("second", func(p *Proc) {
		p.Sleep(500 * Microsecond)
		f.Transfer(p, 1e6, l)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// First: alone for 0.5ms (0.5MB done), shared for 1ms (0.5MB at half
	// rate) = 1.5ms total.
	expectClose(t, "d1", float64(d1), 1.5*float64(Millisecond), 1e-3)
}

func TestFluidZeroBytesNoop(t *testing.T) {
	e := NewEngine(1)
	f := NewFluid(e)
	l := NewLink("l", 1e9)
	e.Spawn("x", func(p *Proc) {
		f.Transfer(p, 0, l)
		if p.Now() != 0 {
			t.Error("zero transfer advanced time")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFluidManyTransfersConservation(t *testing.T) {
	// N equal jobs over one link must take exactly N * bytes / cap.
	e := NewEngine(1)
	f := NewFluid(e)
	l := NewLink("l", 2e9)
	const n = 16
	var last Time
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprintf("j%d", i), func(p *Proc) {
			f.Transfer(p, 1e6, l)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	expectClose(t, "makespan", float64(last), float64(n)*1e6/2e9*float64(Second), 1e-3)
}

// TestFluidWaterfillProperties checks, over random configurations, that
// the rate assignment (a) never oversubscribes a link and (b) is
// work-conserving at each bottleneck (every job is limited by at least
// one saturated link). Jobs arrive one at a time as Transfer registers
// them, each arrival re-solving its component.
func TestFluidWaterfillProperties(t *testing.T) {
	check := func(seed int64) bool {
		e := NewEngine(seed)
		f := NewFluid(e)
		rng := e.Rand
		nLinks := 2 + rng.Intn(4)
		links := make([]*Link, nLinks)
		for i := range links {
			links[i] = NewLink(fmt.Sprintf("l%d", i), float64(1+rng.Intn(8))*1e9)
		}
		nJobs := 1 + rng.Intn(8)
		for i := 0; i < nJobs; i++ {
			// Random non-empty subset of links.
			var ls []*Link
			for _, l := range links {
				if rng.Intn(2) == 0 {
					ls = append(ls, l)
				}
			}
			if len(ls) == 0 {
				ls = append(ls, links[rng.Intn(nLinks)])
			}
			f.arrive(nil, 1e6, ls)
			f.solve(ls)
		}
		// (a) No link oversubscribed.
		load := map[*Link]float64{}
		for _, j := range f.jobs {
			if j.rate <= 0 {
				return false
			}
			for _, l := range j.links {
				load[l] += j.rate
			}
		}
		for l, v := range load {
			if v > l.Cap*(1+1e-9) {
				return false
			}
		}
		// (b) Every job crosses at least one saturated link.
		for _, j := range f.jobs {
			sat := false
			for _, l := range j.links {
				if load[l] >= l.Cap*(1-1e-9) {
					sat = true
					break
				}
			}
			if !sat {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFluidTransferChargesAcct(t *testing.T) {
	e := NewEngine(1)
	f := NewFluid(e)
	l := NewLink("l", 1e9)
	a := NewAcct()
	e.Spawn("x", func(p *Proc) {
		p.SetAcct(a)
		p.InCat("copy", func() {
			f.Transfer(p, 1e6, l)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	expectClose(t, "acct copy", float64(a.Get("copy")), float64(Millisecond), 1e-6)
}

// TestFluidInterleavedStartStop stresses membership churn: transfers of
// random sizes starting at random times must all complete and total
// link bytes must equal the sum of transfer sizes.
func TestFluidInterleavedStartStop(t *testing.T) {
	e := NewEngine(5)
	f := NewFluid(e)
	l := NewLink("l", 1e9)
	var total float64
	done := 0
	const n = 50
	for i := 0; i < n; i++ {
		sz := float64(1+e.Rand.Intn(1000)) * 1e3
		delay := Time(e.Rand.Intn(2000)) * Microsecond
		total += sz
		e.Spawn(fmt.Sprintf("x%d", i), func(p *Proc) {
			p.Sleep(delay)
			f.Transfer(p, sz, l)
			done++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	if math.Abs(l.Bytes-total) > 1 {
		t.Fatalf("link bytes = %v, want %v", l.Bytes, total)
	}
	if f.Active() != 0 {
		t.Fatalf("active jobs left: %d", f.Active())
	}
}

// TestFluidMakespanLowerBound: the makespan can never beat the most
// loaded link's total bytes divided by its capacity.
func TestFluidMakespanLowerBound(t *testing.T) {
	e := NewEngine(9)
	f := NewFluid(e)
	a := NewLink("a", 1e9)
	b := NewLink("b", 2e9)
	var last Time
	loads := map[*Link]float64{}
	for i := 0; i < 12; i++ {
		links := []*Link{a}
		if i%3 == 0 {
			links = []*Link{a, b}
		} else if i%3 == 1 {
			links = []*Link{b}
		}
		sz := float64(100+e.Rand.Intn(900)) * 1e3
		for _, l := range links {
			loads[l] += sz
		}
		ls := links
		e.Spawn(fmt.Sprintf("j%d", i), func(p *Proc) {
			f.Transfer(p, sz, ls...)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	bound := loads[a] / a.Cap
	if lb := loads[b] / b.Cap; lb > bound {
		bound = lb
	}
	if last.Seconds() < bound*(1-1e-9) {
		t.Fatalf("makespan %v beats lower bound %.6fs", last, bound)
	}
}

// refWaterfill is the global max-min solve that the component-local one
// replaced, kept as the differential reference: it solves every active
// job at once and rescans every link and every job on every round. It
// returns the rates in jobs order and touches no solver state.
func refWaterfill(jobs []*fjob) []float64 {
	type lstate struct {
		residual float64
		njobs    int
		settled  bool
	}
	idx := map[*Link]int{}
	var st []lstate // in first-seen order
	for _, j := range jobs {
		for _, l := range j.links {
			if _, ok := idx[l]; !ok {
				idx[l] = len(st)
				st = append(st, lstate{residual: l.Cap})
			}
		}
	}
	for _, j := range jobs {
		for _, l := range j.links {
			st[idx[l]].njobs++
		}
	}
	rate := make([]float64, len(jobs))
	settled := make([]bool, len(jobs))
	for unsettled := len(jobs); unsettled > 0; {
		bn := -1
		best := math.Inf(1)
		for i := range st {
			l := &st[i]
			if l.settled || l.njobs == 0 {
				continue
			}
			if share := l.residual / float64(l.njobs); share < best {
				best, bn = share, i
			}
		}
		if bn < 0 {
			panic("refWaterfill: no bottleneck with unsettled jobs")
		}
		st[bn].settled = true
		for k, j := range jobs {
			if settled[k] {
				continue
			}
			onBn := false
			for _, l := range j.links {
				if idx[l] == bn {
					onBn = true
					break
				}
			}
			if !onBn {
				continue
			}
			rate[k] = best
			settled[k] = true
			unsettled--
			for _, l := range j.links {
				i := idx[l]
				if i == bn {
					continue
				}
				st[i].residual -= best
				if st[i].residual < 0 {
					st[i].residual = 0
				}
				st[i].njobs--
			}
		}
		st[bn].njobs = 0
	}
	return rate
}

// fluidModel drives the solver the way Transfer and a completion event
// do, without processes or time, and checks it against refWaterfill
// after every membership change.
type fluidModel struct {
	f     *Fluid
	links []*Link
}

// newFluidModel builds a network over links of the given capacities
// whose solves scan at most scanMax links for bottlenecks.
func newFluidModel(caps []float64, scanMax int) *fluidModel {
	m := &fluidModel{f: NewFluid(NewEngine(1))}
	m.f.scanMax = scanMax
	for i, c := range caps {
		m.links = append(m.links, NewLink(fmt.Sprintf("l%d", i), c))
	}
	return m
}

// arrive starts a job over the given link indices (repeats allowed).
func (m *fluidModel) arrive(path []int) {
	ls := make([]*Link, len(path))
	for i, k := range path {
		ls[i] = m.links[k]
	}
	m.f.arrive(nil, 1, ls)
	m.f.solve(ls)
}

// depart finishes the active jobs at the given positions at once.
func (m *fluidModel) depart(pos ...int) {
	for _, k := range pos {
		m.f.jobs[k].done = true
	}
	m.f.solve(m.f.retire())
}

// check compares every rate with the global solve and every link's job
// list with f.jobs.
func (m *fluidModel) check() error {
	want := refWaterfill(m.f.jobs)
	for k, j := range m.f.jobs {
		if math.Float64bits(j.rate) != math.Float64bits(want[k]) {
			return fmt.Errorf("job %d of %d: rate %v (%#x), global solve %v (%#x)",
				k, len(m.f.jobs), j.rate, math.Float64bits(j.rate), want[k], math.Float64bits(want[k]))
		}
	}
	for _, l := range m.links {
		var on []*fjob
		for _, j := range m.f.jobs {
			for _, x := range j.links {
				if x == l {
					on = append(on, j)
				}
			}
		}
		if !slices.Equal(on, l.jobs) {
			return fmt.Errorf("link %s lists %d jobs, %d active jobs cross it", l.Name, len(l.jobs), len(on))
		}
	}
	return nil
}

// fuzzCaps are the capacities FuzzFluidSolve picks from: repeats force
// share ties, and the non-dyadic values can make a subtraction round
// below 0.
var fuzzCaps = [8]float64{1e9, 2e9, 1e9, 1e9 / 3, 0.1, 0.3, 0.7e9, 3e9}

// runFluidOps decodes data as a fluid scenario and checks every step,
// once with every solve's bottlenecks taken from the heap and once with
// the default scan cutoff: data[0] picks 1-32 links, then one byte per
// link picks its capacity from fuzzCaps. Each later byte b is one
// membership change: b < 0x80 arrives a job whose path names 1-4 links,
// taken from the following bytes (repeats allowed); otherwise the job
// at position b%len departs, with its successor too when b&0x40 is set.
func runFluidOps(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	nl := 1 + int(data[0])%32
	data = data[1:]
	caps := make([]float64, nl)
	for i := range caps {
		if len(data) == 0 {
			return nil
		}
		caps[i] = fuzzCaps[data[0]%8]
		data = data[1:]
	}
	for _, scanMax := range []int{0, scanLinks} {
		if err := playFluidOps(newFluidModel(caps, scanMax), data); err != nil {
			return fmt.Errorf("scanning at most %d links: %w", scanMax, err)
		}
	}
	return nil
}

// playFluidOps applies the membership changes encoded in ops to m.
func playFluidOps(m *fluidModel, ops []byte) error {
	for len(ops) > 0 {
		b := ops[0]
		ops = ops[1:]
		if b < 0x80 {
			n := 1 + int(b>>4)&3
			if n > len(ops) {
				n = len(ops)
			}
			if n == 0 {
				break
			}
			path := make([]int, n)
			for i := range path {
				path[i] = int(ops[i]) % len(m.links)
			}
			ops = ops[n:]
			m.arrive(path)
		} else {
			active := len(m.f.jobs)
			if active == 0 {
				continue
			}
			k := int(b&0x3f) % active
			if b&0x40 != 0 && k+1 < active {
				m.depart(k, k+1)
			} else {
				m.depart(k)
			}
		}
		if err := m.check(); err != nil {
			return err
		}
	}
	return nil
}

// wideChain is a fuzz seed whose one component spans 20 links: a chain
// of jobs over neighbouring links (every third one repeating a link),
// then departures from the middle that split it and merge it again.
func wideChain() []byte {
	data := []byte{19}
	for i := 0; i < 20; i++ {
		data = append(data, byte(i*3))
	}
	for i := 0; i < 19; i++ {
		if i%3 == 0 {
			data = append(data, 0x20, byte(i), byte(i+1), byte(i))
		} else {
			data = append(data, 0x10, byte(i), byte(i+1))
		}
	}
	return append(data, 0x89, 0xc4, 0x00, 9, 0x10, 4, 5, 0x80, 0x85)
}

// FuzzFluidSolve checks the component-local solve against the global
// one, bit for bit, after every arrival and departure.
func FuzzFluidSolve(f *testing.F) {
	f.Add([]byte{0})
	// One link, ties: three jobs share it, one repeats it.
	f.Add([]byte{0, 0, 0x00, 0, 0x00, 0, 0x10, 0, 0, 0x80, 0x80, 0x80})
	// A chain that merges through a bridge job, then splits when it leaves.
	f.Add([]byte{4, 0, 1, 2, 3, 4, 0x00, 0, 0x00, 2, 0x10, 1, 2, 0x80, 0x00, 4, 0x90, 0x81})
	// Non-dyadic capacities with crossing paths.
	f.Add([]byte{3, 4, 5, 3, 4, 0x30, 0, 1, 2, 3, 0x20, 1, 2, 3, 0x10, 0, 3, 0x00, 1, 0xc0, 0x30, 3, 2, 1, 0, 0x81, 0x80})
	// Repeated links on several paths, two departures at once.
	f.Add([]byte{2, 1, 1, 0, 0x30, 0, 0, 1, 1, 0x10, 1, 1, 0x20, 2, 2, 0, 0xc1, 0x80})
	// Two jobs repeating links of 0.7e9: a residual rounds below 0 and
	// is clamped.
	f.Add([]byte{1, 6, 6, 0x27, 0, 0, 1, 0x3e, 1, 0, 1})
	f.Add(wideChain())
	f.Fuzz(func(t *testing.T, data []byte) {
		// Longer scenarios add little and make the quadratic check slow.
		if len(data) > 256 {
			data = data[:256]
		}
		if err := runFluidOps(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFluidSolveMatchesGlobal runs long random scenarios, larger than
// the fuzz seeds, through the differential check, on 8 and 32 links.
func TestFluidSolveMatchesGlobal(t *testing.T) {
	for _, nl := range []int{8, 32} {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			data := make([]byte, 600)
			rng.Read(data)
			data[0] = byte(nl - 1)
			// Bias toward arrivals so components grow before they split.
			for i := 1 + nl; i < len(data); i++ {
				if data[i] >= 0x80 && rng.Intn(3) == 0 {
					data[i] &= 0x7f
				}
			}
			if err := runFluidOps(data); err != nil {
				t.Fatalf("%d links, seed %d: %v", nl, seed, err)
			}
		}
	}
}

// TestFluidRejectsNonFinite: bad capacities and byte counts fail at the
// call that passes them, naming the link or proc.
func TestFluidRejectsNonFinite(t *testing.T) {
	for _, c := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprintf("cap=%v", c), func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), `"ctrl7"`) {
					t.Fatalf("NewLink(%v) panic = %v, want one naming the link", c, r)
				}
			}()
			NewLink("ctrl7", c)
		})
	}
	for _, b := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprintf("bytes=%v", b), func(t *testing.T) {
			e := NewEngine(1)
			f := NewFluid(e)
			l := NewLink("l", 1e9)
			e.Spawn("copier", func(p *Proc) { f.Transfer(p, b, l) })
			err := e.Run()
			if err == nil || !strings.Contains(err.Error(), `"copier"`) || !strings.Contains(err.Error(), "finite") {
				t.Fatalf("Transfer(%v) error = %v, want one naming the proc", b, err)
			}
		})
	}
}

// TestFluidLinkOwnedByOneFluid: a link carries its network's job list,
// so a second Fluid routing over it is an invariant failure that names
// the link.
func TestFluidLinkOwnedByOneFluid(t *testing.T) {
	e := NewEngine(1)
	f1, f2 := NewFluid(e), NewFluid(e)
	shared := NewLink("ht0-1", 1e9)
	e.Spawn("a", func(p *Proc) { f1.Transfer(p, 1e6, shared) })
	e.Spawn("b", func(p *Proc) { f2.Transfer(p, 1e6, shared) })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `link "ht0-1" already carries transfers of another Fluid`) {
		t.Fatalf("err = %v, want the shared-link panic", err)
	}
}

// TestFluidRecyclesJobs: a steady stream of transfers reuses its job
// records, so the transfer path does not allocate per call.
func TestFluidRecyclesJobs(t *testing.T) {
	e := NewEngine(1)
	f := NewFluid(e)
	path := []*Link{NewLink("a", 1e9), NewLink("b", 2e9)}
	const rounds = 200
	var allocs float64
	e.Spawn("x", func(p *Proc) {
		for i := 0; i < 10; i++ { // warm the scratch and the event queue
			f.Transfer(p, 1e3, path...)
		}
		allocs = testing.AllocsPerRun(rounds, func() { f.Transfer(p, 1e3, path...) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("Transfer allocates %v times per call", allocs)
	}
	if len(f.free) != 1 {
		t.Fatalf("free list holds %d jobs, want 1", len(f.free))
	}
}

// BenchmarkFluidTransfer: flows concurrent transfers around a ring of
// nodes (source memory controller, interconnect link, destination
// memory controller), each repeated rounds times; every call
// reconfigures the flow rates.
func BenchmarkFluidTransfer(b *testing.B) {
	for _, c := range []struct{ nodes, flows, rounds int }{{4, 4, 256}, {256, 512, 4}} {
		b.Run(fmt.Sprintf("f%d", c.flows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := NewEngine(1)
				f := NewFluid(e)
				mc := make([]*Link, c.nodes)
				ht := make([]*Link, c.nodes)
				for n := range mc {
					mc[n] = NewLink(fmt.Sprintf("mc%d", n), 10e9)
					ht[n] = NewLink(fmt.Sprintf("ht%d", n), 4e9)
				}
				for k := 0; k < c.flows; k++ {
					path := []*Link{mc[k%c.nodes], ht[k%c.nodes], mc[(k+1)%c.nodes]}
					e.Spawn("flow", func(p *Proc) {
						for r := 0; r < c.rounds; r++ {
							f.Transfer(p, 32768, path...)
						}
					})
				}
				e.MustRun()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.flows*c.rounds), "ns/transfer")
		})
	}
}
