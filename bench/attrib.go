package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// layers are the module names a traced run's CPU and allocation are charged
// to, plus two names for host work no module frame owns: runtime.gc (the
// collector's own goroutines) and runtime.other (idle scheduler, signal
// handling, bench/'s own frames).
var layers = []string{
	"vtime", "simnet", "pipe", "wire", "jxta", "stats", "core", "overlay",
	"transfer", "task", "workload", "scenario", "faults", "experiments",
	layerGC, layerOther,
}

const (
	layerGC     = "runtime.gc"
	layerOther  = "runtime.other"
	modulePath  = "peerlab/internal/"
	gcFramePfx  = "runtime.gc"  // gcBgMarkWorker, gcMarkTermination, gcAssistAlloc...
	bgFramePfx  = "runtime.bgs" // bgsweep, bgscavenge
	allocSample = "alloc_space"
	cpuSample   = "samples"
)

var isLayer = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// layerOf charges one stack (function names, innermost first) to a layer:
// the innermost frame of a listed peerlab/internal module owns the sample,
// so a mallocgc or a channel send made by pipe is pipe's. Module frames of
// packages not in the list (transport, metrics, planetlab) are looked
// through to the listed caller. A stack with no module frame is the
// collector's if any frame is one of the GC's own, and other host work
// otherwise.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, modulePath)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		if isLayer[rest] {
			return rest
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, gcFramePfx) || strings.HasPrefix(fn, bgFramePfx) {
			return layerGC
		}
	}
	return layerOther
}

// sample is one profile sample: its stack, innermost first, and the value
// of the chosen sample type.
type sample struct {
	stack []string
	value int64
}

// attribute sums sample values per layer.
func attribute(samples []sample) map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, s := range samples {
		out[layerOf(s.stack)] += float64(s.value)
	}
	return out
}

// readProfile reads a gzip'd pprof protobuf (what runtime/pprof writes) and
// returns its samples valued by the sample type named typ ("samples",
// "alloc_space", ...). It decodes only the fields attribution needs —
// sample types, samples, locations with their inlined lines, functions and
// the string table — which is why it is a few dozen lines and not a module
// dependency.
func readProfile(path, typ string) ([]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("read profile %s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read profile %s: %w", path, err)
	}
	samples, err := decodeProfile(raw, typ)
	if err != nil {
		return nil, fmt.Errorf("read profile %s: %w", path, err)
	}
	return samples, nil
}

var errTruncated = errors.New("truncated protobuf")

// varint reads one base-128 varint off the front of b.
func varint(b []byte) (v uint64, rest []byte, err error) {
	for shift := uint(0); shift < 64; shift += 7 {
		if len(b) == 0 {
			return 0, nil, errTruncated
		}
		c := b[0]
		b = b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, b, nil
		}
	}
	return 0, nil, errors.New("varint overflow")
}

// fields calls visit for every field of one protobuf message: v carries a
// varint field's value, data a length-delimited field's bytes (nil
// otherwise). Fixed-width fields are skipped; the profile schema has none
// that attribution reads.
func fields(msg []byte, visit func(num int, v uint64, data []byte) error) error {
	for len(msg) > 0 {
		key, rest, err := varint(msg)
		if err != nil {
			return err
		}
		msg = rest
		var v uint64
		var data []byte
		skip := 0
		switch key & 7 {
		case 0:
			if v, msg, err = varint(msg); err != nil {
				return err
			}
		case 1:
			skip = 8
		case 2:
			var n uint64
			if n, msg, err = varint(msg); err != nil {
				return err
			}
			if n > uint64(len(msg)) {
				return errTruncated
			}
			data, skip = msg[:n:n], int(n)
		case 5:
			skip = 4
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if skip > len(msg) {
			return errTruncated
		}
		msg = msg[skip:]
		if err := visit(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarints appends a repeated integer field, which arrives either
// packed (data) or as a single value (v).
func repeatedVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, rest, err := varint(data)
		if err != nil {
			return nil, err
		}
		dst, data = append(dst, x), rest
	}
	return dst, nil
}

func decodeProfile(raw []byte, typ string) ([]sample, error) {
	type rawSample struct{ locs, values []uint64 }
	var (
		sampleTypes []uint64 // string index of each sample type
		rawSamples  []rawSample
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName    = map[uint64]uint64{}   // function id -> string index
		strs        []string
	)
	err := fields(raw, func(num int, _ uint64, msg []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var t uint64
			err := fields(msg, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					t = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2: // sample: Sample{location_id=1, value=2}
			var s rawSample
			err := fields(msg, func(n int, v uint64, d []byte) (err error) {
				switch n {
				case 1:
					s.locs, err = repeatedVarints(s.locs, v, d)
				case 2:
					s.values, err = repeatedVarints(s.values, v, d)
				}
				return err
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location: Location{id=1, line=4: Line{function_id=1}}
			var id uint64
			var fns []uint64
			err := fields(msg, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(d, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function: Function{id=1, name=2}
			var id, name uint64
			err := fields(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	col := -1
	for i, t := range sampleTypes {
		if str(t) == typ {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("profile has no sample type %q", typ)
	}
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if col >= len(rs.values) {
			return nil, errors.New("sample has fewer values than sample types")
		}
		s := sample{value: int64(rs.values[col])}
		for _, loc := range rs.locs {
			for _, fn := range locLines[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}
