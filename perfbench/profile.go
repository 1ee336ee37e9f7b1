package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// layers are the program's modules, as the benchmark reports them. Each
// CPU-profile sample is charged to the layer of its leaf frame's package.
var layers = []string{"traffic", "overload", "cluster", "sim", "kernel", "enokic", "vpol", "sched", "runtime", "bench", "other"}

// layerOf maps a Go package path to its layer.
func layerOf(pkg string) string {
	switch {
	case pkg == "enoki/internal/workload/traffic":
		return "traffic"
	case pkg == "enoki/internal/overload":
		return "overload"
	case pkg == "enoki/internal/cluster":
		return "cluster"
	case pkg == "enoki/internal/sim":
		return "sim"
	case pkg == "enoki/internal/kernel", pkg == "enoki/internal/rbtree":
		return "kernel"
	case pkg == "enoki/internal/enokic", pkg == "enoki/internal/core":
		return "enokic"
	case pkg == "enoki/internal/vpol":
		return "vpol"
	case strings.HasPrefix(pkg, "enoki/internal/sched/"):
		return "sched"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/"),
		pkg == "sync", pkg == "sync/atomic":
		return "runtime"
	case pkg == "main", pkg == "perfbench": // "perfbench" inside the test binary
		return "bench"
	}
	return "other"
}

// pkgOf returns the package path of a fully qualified Go function name,
// e.g. "enoki/internal/sim" for "enoki/internal/sim.(*Engine).fire".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// runtimeKind splits runtime samples by what the runtime was doing,
// judged from the whole stack: garbage collection first (an allocation
// that assists the collector counts as collection), then goroutine
// parking, waking and lock spinning, then allocation.
func runtimeKind(stack []string) string {
	has := func(names ...string) bool {
		for _, fn := range stack {
			for _, n := range names {
				if fn == n || strings.HasPrefix(fn, n+".") {
					return true
				}
			}
		}
		return false
	}
	switch {
	case has("runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.deductSweepCredit"):
		return "gc"
	case has("runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark", "runtime.goready",
		"runtime.ready", "runtime.wakep", "runtime.futex", "runtime.notesleep", "runtime.notewakeup",
		"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.semacquire1", "runtime.semrelease1",
		"runtime.lock2", "runtime.unlock2", "runtime.osyield", "runtime.procyield", "runtime.usleep",
		"sync.(*WaitGroup).Wait", "sync.(*Mutex).lockSlow", "sync.(*Mutex).unlockSlow"):
		return "sync"
	case has("runtime.mallocgc", "runtime.newobject", "runtime.growslice", "runtime.makeslice", "runtime.makemap"):
		return "alloc"
	}
	return "other"
}

// profile accumulates CPU-profile self time by layer across the traced
// drives of a run.
type profile struct {
	buf     bytes.Buffer
	selfNS  map[string]int64 // layer → self time
	rtNS    map[string]int64 // runtime kind → self time
	totalNS int64
	samples int64
}

func (p *profile) start() error {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	return nil
}

// stop ends the profile and folds its samples into the totals.
func (p *profile) stop() error {
	pprof.StopCPUProfile()
	if p.selfNS == nil {
		p.selfNS = make(map[string]int64)
		p.rtNS = make(map[string]int64)
	}
	return p.fold(p.buf.Bytes())
}

func (p *profile) fold(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("read CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("read CPU profile: %w", err)
	}
	pr, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("parse CPU profile: %w", err)
	}
	var stack []string
	for _, s := range pr.samples {
		if len(s.locs) == 0 || len(s.values) < 2 {
			continue
		}
		stack = stack[:0]
		for _, id := range s.locs {
			for _, fid := range pr.locs[id] {
				stack = append(stack, pr.strings[pr.funcs[fid]])
			}
		}
		if len(stack) == 0 {
			continue
		}
		ns := s.values[1] // [samples/count, cpu/nanoseconds]
		layer := layerOf(pkgOf(stack[0]))
		p.selfNS[layer] += ns
		if layer == "runtime" {
			p.rtNS[runtimeKind(stack)] += ns
		}
		p.totalNS += ns
		p.samples += s.values[0]
	}
	return nil
}

// rawProfile is the part of a pprof profile.proto the benchmark reads.
type rawProfile struct {
	samples []rawSample
	locs    map[uint64][]uint64 // location id → function ids, leaf (innermost inlined) first
	funcs   map[uint64]int64    // function id → name index in strings
	strings []string
}

type rawSample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the uncompressed profile.proto message: samples
// (field 2), locations (4), functions (5) and the string table (6).
func parseProfile(b []byte) (*rawProfile, error) {
	pr := &rawProfile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	err := walk(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s rawSample
			err := walk(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, m)
				case 2:
					for _, u := range appendPacked(nil, v, m) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			pr.samples = append(pr.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walk(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walk(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			pr.locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := walk(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			pr.funcs[id] = name
			return err
		case 6:
			pr.strings = append(pr.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range pr.funcs {
		if name < 0 || name >= int64(len(pr.strings)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, name, len(pr.strings))
		}
	}
	return pr, nil
}

var errTruncated = errors.New("truncated protobuf")

// walk calls fn for each field of a protobuf message: v holds a varint or
// fixed value, msg the bytes of a length-delimited one.
func walk(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed (msg) or not (v).
func appendPacked(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		u, n := uvarint(msg)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		msg = msg[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
