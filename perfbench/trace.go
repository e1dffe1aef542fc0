package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	numamig "numamig"
	"numamig/internal/exp"
	"numamig/internal/sim"
)

// span is one traced interval. Host spans are in host nanoseconds since
// the tracer started; virtual spans are in simulated nanoseconds.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: none
	Op      int    `json:"op"`
	Virtual bool   `json:"virtual,omitempty"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpans bounds the in-memory span log; later spans are not kept.
const maxSpans = 1 << 16

// tracer records spans from the benchmark's own calls into the program,
// in memory, and writes them out at the end of the run. It is safe for
// concurrent use by the runner's workers.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextID int
	op     int // current op id
	opSpan int // current op's span id

	// Systems built during the current op (numamig.SetSystemObserver),
	// read after the op for their engine step counts.
	systems []*numamig.System
	// Per pass: worker idle time and total worker time of parallel
	// passes, for exp.runner_idle_frac.
	idle, capacity time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// attach starts collecting every System built, for its step count;
// detach stops it. Call them only while no op is running.
func (t *tracer) attach() {
	numamig.SetSystemObserver(func(s *numamig.System) {
		t.mu.Lock()
		t.systems = append(t.systems, s)
		t.mu.Unlock()
	})
}

func (t *tracer) detach() { numamig.SetSystemObserver(nil) }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s.ID = t.nextID
	s.Op = t.op
	t.keep(s)
	return s.ID
}

// keep appends s to the log while it has room; t.mu must be held.
func (t *tracer) keep(s span) {
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
}

// beginOp opens op id's span and forgets Systems built before it (by
// untraced ops); endOp closes it.
func (t *tracer) beginOp(id int) int64 {
	t.mu.Lock()
	t.systems = t.systems[:0]
	t.op = id
	t.nextID++
	t.opSpan = t.nextID
	t.mu.Unlock()
	return t.now()
}

func (t *tracer) endOp(start int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.keep(span{Name: "op", ID: t.opSpan, Op: t.op, Start: start, End: t.now()})
}

// takeEvents returns the DES steps of every System built since the last
// call and forgets them.
func (t *tracer) takeEvents() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, s := range t.systems {
		n += s.Eng.Steps()
	}
	t.systems = t.systems[:0]
	return n
}

// runPass runs one pass the way exp.Runner does (workers pull scenario
// indices from one channel; results land by index) with a span around
// every exp.RunScenario call, and accounts the time workers sat idle
// while the pass waited on its slowest scenario.
func (t *tracer) runPass(scs []exp.Scenario, workers int) []exp.Result {
	if workers > len(scs) {
		workers = len(scs)
	}
	if workers < 1 {
		workers = 1
	}
	out := make([]exp.Result, len(scs))
	busy := make([]time.Duration, workers)
	parent := t.opSpan
	start := time.Now()
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				s0 := t.now()
				out[i] = exp.RunScenario(scs[i])
				s1 := t.now()
				busy[w] += time.Duration(s1 - s0)
				t.add(span{Name: "exp.scenario." + scs[i].Family, Parent: parent, Start: s0, End: s1})
			}
		}(w)
	}
	for i := range scs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	elapsed := time.Since(start)
	t.mu.Lock()
	for _, b := range busy {
		t.idle += elapsed - b
	}
	t.capacity += elapsed * time.Duration(workers)
	t.mu.Unlock()
	return out
}

// taskSpans records one churn task's per-call virtual-time spans. Procs
// run one at a time under the engine token, so the calls are ordered.
func (t *tracer) taskSpans(v ...sim.Time) {
	names := [...]string{"kern.mmap", "kern.touch", "kern.move_pages", "kern.read", "kern.munmap"}
	task := t.add(span{Name: "churn.task", Parent: t.opSpan, Virtual: true, Start: int64(v[0]), End: int64(v[len(v)-1])})
	for i, n := range names {
		t.add(span{Name: n, Parent: task, Virtual: true, Start: int64(v[i]), End: int64(v[i+1])})
	}
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.dur()))
		}
	}
	return d
}

// idleFrac is the share of worker time spent idle in parallel passes.
func (t *tracer) idleFrac() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.capacity <= 0 {
		return 0
	}
	return float64(t.idle) / float64(t.capacity)
}

// write stores the span log as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}
