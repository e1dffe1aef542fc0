package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal decoder for the gzip-compressed protobuf profiles
// runtime/pprof writes (github.com/google/pprof/proto/profile.proto),
// reading only what layer attribution needs: samples with their values
// and location ids, locations with their (possibly inlined) lines, and
// function names from the string table.

type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// decodeProfile parses a gzip-compressed profile.
func decodeProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("gzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("gzip: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch {
		case field == 2 && wire == 2:
			s, err := decodeSample(b)
			p.samples = append(p.samples, s)
			return err
		case field == 4 && wire == 2:
			id, fns, err := decodeLocation(b)
			p.locations[id] = fns
			return err
		case field == 5 && wire == 2:
			id, name, err := decodeFunction(b)
			p.functions[id] = name
			return err
		case field == 6 && wire == 2:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("pprof: truncated message")

func uvarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// walkFields calls fn for every field of a protobuf message: v for
// varint fields, b for length-delimited ones. Fixed-width fields are
// skipped.
func walkFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n, err := uvarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			if v, n, err = uvarint(b); err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n, err := uvarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return errTruncated
			}
			sub, b = b[:l], b[l:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarints appends a repeated varint field's values, packed
// (wire type 2) or not.
func repeatedVarints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n, err := uvarint(b)
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

func decodeSample(b []byte) (sample, error) {
	var s sample
	var vals []uint64
	err := walkFields(b, func(field, wire int, v uint64, sub []byte) error {
		var err error
		switch field {
		case 1:
			s.locs, err = repeatedVarints(s.locs, wire, v, sub)
		case 2:
			vals, err = repeatedVarints(vals, wire, v, sub)
		}
		return err
	})
	for _, v := range vals {
		s.values = append(s.values, int64(v))
	}
	return s, err
}

func decodeLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	err := walkFields(b, func(field, wire int, v uint64, sub []byte) error {
		switch {
		case field == 1 && wire == 0:
			id = v
		case field == 4 && wire == 2:
			return walkFields(sub, func(f, w int, v uint64, _ []byte) error {
				if f == 1 && w == 0 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

func decodeFunction(b []byte) (uint64, int64, error) {
	var id uint64
	var name int64
	err := walkFields(b, func(field, wire int, v uint64, _ []byte) error {
		if wire == 0 {
			switch field {
			case 1:
				id = v
			case 2:
				name = int64(v)
			}
		}
		return nil
	})
	return id, name, err
}

// stack returns a sample's function names, leaf first, inlined frames
// included.
func (p *profile) stack(s sample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fn := range p.locations[loc] {
			if i := p.functions[fn]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// shareLayers are the layers share.<layer> reports, in output order.
var shareLayers = []string{
	"exp", "sim_engine", "sim_fluid", "kern", "kern_daemonhub", "vm", "mem",
	"placement", "migrate", "autonuma", "telemetry", "tenancy",
	"runtime_gc", "runtime_sched", "other",
}

// layerShares attributes every sample of the CPU profiles to a layer
// and returns each layer's fraction of the sampled CPU time.
func layerShares(profiles ...[]byte) (map[string]float64, error) {
	cpu := map[string]float64{}
	var total float64
	for _, data := range profiles {
		p, err := decodeProfile(data)
		if err != nil {
			return nil, err
		}
		for _, s := range p.samples {
			if len(s.values) == 0 {
				continue
			}
			v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
			cpu[attribute(p.stack(s))] += v
			total += v
		}
	}
	shares := map[string]float64{}
	for _, l := range shareLayers {
		if total > 0 {
			shares[l] = cpu[l] / total
		}
	}
	return shares, nil
}

// gcRoots mark a stack as garbage-collector work wherever they appear.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcAssistAlloc", "runtime.markroot", "runtime.gcDrain",
	"runtime.GC", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.scanobject", "runtime.sweepone", "runtime.wbBufFlush",
}

// schedPrefixes are the scheduler, channel and futex paths the simulator's
// proc handoff runs through.
var schedPrefixes = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.futex", "runtime.notesleep",
	"runtime.notewakeup", "runtime.stopm", "runtime.startm", "runtime.wakep",
	"runtime.runq", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
	"runtime.lock2", "runtime.unlock2", "runtime.procyield", "runtime.osyield",
	"runtime.usleep", "runtime.mcall", "runtime.gogo", "runtime.goexit",
	"runtime.newproc", "runtime.casgstatus", "runtime.execute", "runtime.send",
	"runtime.recv", "runtime.netpoll", "runtime.sema", "runtime.exitsyscall",
	"runtime.entersyscall", "runtime.gosched", "runtime.resetspinning",
	"runtime.stealWork", "runtime.mPark", "runtime.gfget", "runtime.gfput",
	"runtime.mstart", "runtime.checkTimers", "runtime.injectglist",
}

// modulePackages maps the simulator's packages to layers; receiver
// types split sim.Fluid from the engine and the daemon hub from the
// rest of the kernel.
var modulePackages = map[string]string{
	"exp": "exp", "sim": "sim_engine", "kern": "kern", "vm": "vm", "mem": "mem",
	"placement": "placement", "migrate": "migrate", "autonuma": "autonuma",
	"telemetry": "telemetry", "tenancy": "tenancy",
}

// attribute assigns one sample stack (leaf first) to a layer: garbage
// collection wherever it appears, else the first frame, from the leaf,
// that belongs to a simulator package or to the scheduler. Other
// runtime and standard-library frames (allocation, maps, locks) are
// charged to their caller.
func attribute(stack []string) string {
	for _, f := range stack {
		for _, r := range gcRoots {
			if f == r || strings.HasPrefix(f, r+".") {
				return "runtime_gc"
			}
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.") {
			for _, p := range schedPrefixes {
				if strings.HasPrefix(f, p) {
					return "runtime_sched"
				}
			}
			continue
		}
		if rest, ok := strings.CutPrefix(f, "numamig/internal/"); ok {
			pkg, sym, _ := strings.Cut(rest, ".")
			switch {
			case pkg == "sim" && (strings.HasPrefix(sym, "(*Fluid)") || strings.HasPrefix(sym, "(*Link)")):
				return "sim_fluid"
			case pkg == "kern" && (strings.HasPrefix(sym, "(*DaemonHub)") || strings.HasPrefix(sym, "(*hubRunner)")):
				return "kern_daemonhub"
			}
			if l, ok := modulePackages[pkg]; ok {
				return l
			}
			return "other"
		}
		if isStdlib(f) {
			continue
		}
		return "other"
	}
	return "other"
}

// isStdlib reports whether a function belongs to the standard library:
// its package path has no dot in its first element and is not this
// module's.
func isStdlib(f string) bool {
	if strings.HasPrefix(f, "numamig") || strings.HasPrefix(f, "main.") {
		return false
	}
	first, _, _ := strings.Cut(f, "/")
	first, _, _ = strings.Cut(first, ".")
	return !strings.Contains(first, ".") && first != ""
}
