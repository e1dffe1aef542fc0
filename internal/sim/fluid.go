package sim

import (
	"fmt"
	"math"
)

// Link is a capacity-limited channel in the fluid bandwidth network: a
// memory controller, a HyperTransport link, a per-core copy engine, or the
// kernel's page-migration channel. Capacity is in bytes per second.
//
// A link carries its network's per-link job list, so it belongs to the
// first Fluid that routes a transfer over it; a second Fluid routing
// over it panics.
type Link struct {
	Name string
	Cap  float64 // bytes/second

	// Stats.
	Bytes float64 // total bytes served

	owner *Fluid
	// jobs are the active transfers crossing the link, in arrival order;
	// a path that names the link twice puts its job here twice.
	jobs []*fjob

	// solve scratch state
	mark     uint64 // Fluid.gen stamp: reached by the current pass
	seen     int    // first-seen rank in the solved jobs
	residual float64
	njobs    int
	share    float64 // residual/njobs, the cached bottleneck-heap key
	hidx     int     // position in Fluid.heap
}

// NewLink creates a link with the given capacity in bytes/second, which
// must be positive and finite.
func NewLink(name string, capacity float64) *Link {
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		panic(fmt.Sprintf("sim: link %q capacity must be positive and finite, got %v", name, capacity))
	}
	return &Link{Name: name, Cap: capacity}
}

type fjob struct {
	links     []*Link
	remaining float64
	rate      float64
	p         *Proc
	mark      uint64 // Fluid.gen stamp: collected by the current solve
	settled   bool
	done      bool // drained, leaving at the current completion
}

// Fluid models concurrent bulk transfers over shared links with max-min
// fair bandwidth allocation (progressive water-filling). Each transfer
// occupies a path of links; its instantaneous rate is recomputed whenever
// the set of active transfers changes. This reproduces the
// processor-sharing behaviour of real memory controllers and interconnect
// links under contention.
//
// A max-min fair allocation splits by connected component of the
// job/link graph, so a membership change re-solves only the components
// reachable from the links of the arriving or departing jobs; every
// other job keeps its rate.
type Fluid struct {
	eng     *Engine
	jobs    []*fjob // active transfers in arrival order
	lastUpd Time
	gen     uint64  // stamps Link.mark and fjob.mark, one value per pass
	due     evKey   // the completion event of the latest reconfigure
	onDue   func()  // f.fire, bound once so scheduling it allocates nothing
	free    []*fjob // recycled jobs, at most the peak number in flight
	scanMax int     // scanLinks; tests lower it to run the heap on any size

	// solve scratch, reused across reconfigures
	seeds []*Link
	stack []*Link
	cjobs []*fjob
	links []*Link
	heap  []*Link
}

// NewFluid creates a fluid network on the engine.
func NewFluid(e *Engine) *Fluid {
	f := &Fluid{eng: e, due: noEvent, scanMax: scanLinks}
	f.onDue = f.fire
	return f
}

// Active returns the number of in-flight transfers.
func (f *Fluid) Active() int { return len(f.jobs) }

// Transfer moves bytes across the path of links, blocking the calling
// process until complete. Bandwidth is shared max-min fairly with all
// concurrent transfers. The elapsed time is charged to the caller's
// current accounting category. Transfer keeps links until the transfer
// completes; the caller must not modify it meanwhile.
func (f *Fluid) Transfer(p *Proc, bytes float64, links ...*Link) {
	if !(bytes > 0 && bytes <= math.MaxFloat64) {
		f.refuse(p, bytes)
		return
	}
	if len(links) == 0 {
		panic("sim: transfer with no links")
	}
	start := f.eng.now
	f.advance()
	f.arrive(p, bytes, links)
	f.reconfigure(links)
	p.park()
	p.charge(f.eng.now - start)
}

// refuse handles a byte count Transfer does not move: a non-finite one
// panics, naming the proc; zero or less is a no-op. It is kept out of
// Transfer so the hot path's stack frame stays small.
func (f *Fluid) refuse(p *Proc, bytes float64) {
	if math.IsNaN(bytes) || math.IsInf(bytes, 0) {
		panic(fmt.Sprintf("sim: proc %q transfer of %v bytes: byte count must be finite", p.name, bytes))
	}
}

// arrive registers a transfer on f.jobs and on its links' job lists.
func (f *Fluid) arrive(p *Proc, bytes float64, links []*Link) *fjob {
	var j *fjob
	if n := len(f.free); n > 0 {
		j = f.free[n-1]
		f.free = f.free[:n-1]
		*j = fjob{}
	} else {
		j = new(fjob)
	}
	j.links, j.remaining, j.p = links, bytes, p
	f.jobs = append(f.jobs, j)
	for _, l := range links {
		if l.owner != f {
			l.adopt(f)
		}
		l.Bytes += bytes
		l.jobs = append(l.jobs, j)
	}
	return j
}

// adopt records f as the link's network on first use.
func (l *Link) adopt(f *Fluid) {
	if l.owner != nil {
		panic(fmt.Sprintf("sim: link %q already carries transfers of another Fluid", l.Name))
	}
	l.owner = f
}

// advance drains progress for all jobs up to the current instant.
func (f *Fluid) advance() {
	dt := f.eng.now - f.lastUpd
	f.lastUpd = f.eng.now
	if dt <= 0 {
		return
	}
	sec := dt.Seconds()
	for _, j := range f.jobs {
		j.remaining -= j.rate * sec
		if j.remaining < 0 {
			j.remaining = 0
		}
	}
}

// reconfigure re-solves the components reachable from the changed links
// and schedules the next completion instant.
func (f *Fluid) reconfigure(changed []*Link) {
	f.due = noEvent
	if len(f.jobs) == 0 {
		return
	}
	f.solve(changed)
	// Next completion.
	minDt := math.Inf(1)
	for _, j := range f.jobs {
		if j.rate <= 0 {
			continue
		}
		if dt := j.remaining / j.rate; dt < minDt {
			minDt = dt
		}
	}
	if math.IsInf(minDt, 1) {
		// All rates zero: cannot happen with positive link capacities.
		panic("sim: fluid jobs with zero rate")
	}
	dtNs := Time(math.Ceil(minDt * float64(Second)))
	if dtNs < 1 {
		dtNs = 1
	}
	f.due = f.eng.schedule(f.eng.now+dtNs, nil, f.onDue)
}

// fire is the completion event. Only the latest reconfigure's event
// acts; earlier ones were superseded by a later membership change.
func (f *Fluid) fire() {
	if f.eng.firing() != f.due {
		return
	}
	f.due = noEvent
	f.advance()
	f.complete()
}

// complete finishes all drained jobs, waking their processes, then
// re-solves what they leave behind.
func (f *Fluid) complete() {
	const eps = 1e-3 // bytes; completion times are rounded up to 1ns
	for _, j := range f.jobs {
		if j.remaining <= eps {
			j.done = true
			j.p.wake()
		}
	}
	f.reconfigure(f.retire())
}

// retire removes the done jobs from f.jobs and from their links' job
// lists, recycles them, and returns the links they crossed.
func (f *Fluid) retire() []*Link {
	f.gen++
	seeds := f.seeds[:0]
	kept := f.jobs[:0]
	for _, j := range f.jobs {
		if !j.done {
			kept = append(kept, j)
			continue
		}
		for _, l := range j.links {
			if l.mark != f.gen {
				l.mark = f.gen
				seeds = append(seeds, l)
			}
		}
		f.free = append(f.free, j)
	}
	clear(f.jobs[len(kept):])
	f.jobs = kept
	for _, l := range seeds {
		on := l.jobs[:0]
		for _, j := range l.jobs {
			if !j.done {
				on = append(on, j)
			}
		}
		clear(l.jobs[len(on):])
		l.jobs = on
	}
	f.seeds = seeds
	return seeds
}

// solve assigns max-min fair rates to every job in the components
// reachable from the changed links: repeatedly take the most constrained
// link (smallest residual capacity per unsettled job), fix that share
// for its jobs, subtract it along their paths, and continue.
//
// The rates equal a solve over every active job bit for bit. Components
// share no link, so the arithmetic inside one does not depend on the
// others, and within the solved jobs the global order is kept: jobs in
// arrival order, ties to the first-seen link.
func (f *Fluid) solve(changed []*Link) {
	f.collect(changed)
	f.settle()
}

// collect gathers into f.cjobs, in arrival order, the jobs reachable
// from the changed links, and lists their links in f.links by first
// sight, with capacity reset and jobs counted.
func (f *Fluid) collect(changed []*Link) {
	f.gen++
	f.reach(changed)
	// Visit them in arrival order, as a solve over every job would.
	jobs := f.cjobs[:0]
	for _, j := range f.jobs {
		if j.mark == f.gen {
			jobs = append(jobs, j)
		}
	}
	f.gen++
	f.cjobs = jobs
	gen := f.gen
	links := f.links[:0]
	for _, j := range jobs {
		j.rate = 0
		j.settled = false
		for _, l := range j.links {
			if l.mark != gen {
				l.mark, l.seen = gen, len(links)
				l.residual = l.Cap
				l.njobs = 0
				links = append(links, l)
			}
			l.njobs++
		}
	}
	for _, l := range links {
		l.share = l.residual / float64(l.njobs)
	}
	f.links = links
	h := f.heap[:0]
	if len(links) > f.scanMax {
		h = append(h, links...)
		for i, l := range h {
			l.hidx = i
		}
	}
	f.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		f.down(i)
	}
}

// reach stamps f.gen on every job reachable from the changed links
// through shared links.
func (f *Fluid) reach(changed []*Link) {
	gen := f.gen
	stack := f.stack[:0]
	for _, l := range changed {
		if l.mark != gen {
			l.mark = gen
			stack = append(stack, l)
		}
	}
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, j := range l.jobs {
			if j.mark == gen {
				continue
			}
			j.mark = gen
			for _, m := range j.links {
				if m.mark != gen {
					m.mark = gen
					stack = append(stack, m)
				}
			}
		}
	}
	f.stack = stack
}

// scanLinks is the most links a solve scans for its bottlenecks; a
// larger component keeps them in a heap. On the ring of the
// fluid.transfer_ns.f512 drive (2-vCPU Xeon VM, go1.24), the scan
// costs 1.2-1.5x less per transfer up to 64 links, the two cross
// between 96 and 128, and at 512 links the heap costs a third of the
// scan. The components of the churn, migration and tiering workloads
// span at most 16 links.
const scanLinks = 96

// settle fixes the rates of the collected jobs, bottleneck by
// bottleneck.
func (f *Fluid) settle() {
	heaped := len(f.heap) > 0
	for unsettled := len(f.cjobs); unsettled > 0; {
		var bn *Link
		if heaped {
			if len(f.heap) > 0 {
				bn = f.heap[0]
				f.remove(bn)
			}
		} else {
			for _, l := range f.links {
				if l.njobs > 0 && (bn == nil || l.share < bn.share) {
					bn = l
				}
			}
		}
		if bn == nil {
			panic("sim: waterfill found no bottleneck with unsettled jobs")
		}
		best := bn.share
		for _, j := range bn.jobs {
			if j.settled {
				continue
			}
			j.rate = best
			j.settled = true
			unsettled--
			for _, l := range j.links {
				if l == bn {
					continue
				}
				l.residual -= best
				if l.residual < 0 {
					l.residual = 0
				}
				l.njobs--
				if l.njobs > 0 {
					l.share = l.residual / float64(l.njobs)
				}
				if heaped {
					if l.njobs == 0 {
						f.remove(l)
					} else if i := l.hidx; !f.up(i) {
						f.down(i)
					}
				}
			}
		}
		bn.njobs = 0
	}
	clear(f.cjobs)
	clear(f.links)
	f.cjobs, f.links = f.cjobs[:0], f.links[:0]
}

// before orders the bottleneck heap: smallest share first, ties to the
// first-seen link.
func (l *Link) before(m *Link) bool {
	return l.share < m.share || l.share == m.share && l.seen < m.seen
}

// up moves the link at heap position i toward the root to its place
// and reports whether it moved.
func (f *Fluid) up(i int) bool {
	h := f.heap
	l, at := h[i], i
	for i > 0 {
		parent := (i - 1) / 2
		if !l.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].hidx = i
		i = parent
	}
	h[i], l.hidx = l, i
	return i != at
}

// down moves the link at heap position i toward the leaves to its place.
func (f *Fluid) down(i int) {
	h := f.heap
	l := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(l) {
			break
		}
		h[i] = h[c]
		h[i].hidx = i
		i = c
	}
	h[i], l.hidx = l, i
}

// remove takes link l out of the heap.
func (f *Fluid) remove(l *Link) {
	i, n := l.hidx, len(f.heap)-1
	last := f.heap[n]
	f.heap[n] = nil
	f.heap = f.heap[:n]
	if i == n {
		return
	}
	f.heap[i], last.hidx = last, i
	if !f.up(i) {
		f.down(i)
	}
}
