package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modulePrefix is the import-path prefix of the simulator's packages.
const modulePrefix = "agilepkgc/internal/"

// Layer names for frames that are not a simulator package: the
// benchmark's own code (rendering and the JSON encoder it calls), a
// module package not in layerNames, and samples with no module frame on
// the stack at all (GC workers, the scheduler, the profiler itself).
const (
	layerBench   = "bench"
	layerOther   = "other"
	layerRuntime = "runtime.gc"
)

// layerNames are the layers a profile is folded into, in report order.
var layerNames = []string{
	"sim", "cpu", "core", "pmu", "dram", "ios", "pdn", "uncore", "clock",
	"signal", "power", "soc", "trace", "server", "stats", "cluster",
	"workload", "replay", "scenario", "experiments",
	layerBench, layerOther, layerRuntime,
}

// layerOf maps a profiled function name to its layer, or "" when the
// function is outside the module (runtime, standard library).
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type parameters may contain import paths
	}
	if strings.HasPrefix(fn, "main.") {
		return layerBench
	}
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	pkg := fn[len(modulePrefix):]
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[i+1:] // workload/replay -> replay
	}
	for _, l := range layerNames {
		if l == pkg {
			return l
		}
	}
	return layerOther
}

// foldProfile decodes a gzipped CPU profile as runtime/pprof writes it
// and counts each sample against the innermost module frame on its
// stack: self time in the runtime or standard library counts against
// the simulator package that called it. Only sample counts are used:
// the kernel's timer tick may cap the sampling rate below the rate the
// profile header states, so the caller turns shares into time with a
// measured CPU total.
func foldProfile(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	count := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "samples" {
			count = i
		}
	}
	if count < 0 {
		return errors.New("profile has no samples value")
	}
	// Resolve each location to the layer of its innermost module frame.
	// Lines inside a location run from the innermost inlined call out.
	locLayer := make(map[uint64]string, len(p.locations))
	for id, fns := range p.locations {
		for _, fid := range fns {
			if l := layerOf(p.str(p.functions[fid])); l != "" {
				locLayer[id] = l
				break
			}
		}
	}
	for _, s := range p.samples {
		layer := layerRuntime
		for _, loc := range s.locations {
			if l := locLayer[loc]; l != "" {
				layer = l
				break
			}
		}
		if count >= len(s.values) {
			return errors.New("profile sample is missing its count")
		}
		into[layer] += s.values[count]
	}
	return nil
}

// profile holds the parts of profile.proto the folding needs.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := walk(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case fProfileSampleType:
			var typ int64
			err := walk(sub, func(f, _ int, v uint64, _ []byte) error {
				if f == fValueTypeType {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case fProfileSample:
			var s sample
			err := walk(sub, func(f, w int, v uint64, packed []byte) error {
				switch f {
				case fSampleLocation:
					return varints(w, v, packed, func(x uint64) { s.locations = append(s.locations, x) })
				case fSampleValue:
					return varints(w, v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walk(sub, func(f, _ int, v uint64, line []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return walk(line, func(f, _ int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := walk(sub, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileStringTable:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode cpu profile: %w", err)
	}
	return p, nil
}

// walk calls fn for every field of one protobuf message: v holds a
// varint or fixed value, sub the bytes of a length-delimited field.
func walk(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field written either packed
// (wire type 2) or as a single value (wire type 0).
func varints(wire int, v uint64, packed []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}
