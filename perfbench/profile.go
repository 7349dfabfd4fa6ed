package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// layers are the simulator's packages, each reported as one layer, plus
// runtime (allocator, garbage collector, scheduler) and other. A profile
// sample is charged to the layer of its leaf frame, so a layer's share is
// its self time. Two refinements keep the split about the program: a leaf
// in the standard library outside runtime (math, sort, sync) is charged to
// the innermost project frame that called it, and a sample whose innermost
// project frame belongs to the benchmark itself (its wrappers reading the
// clock) is charged to harness, so tracing cost lands on no layer.
var layers = []string{
	"sim", "workload", "app", "metrics", "stats", "provision", "queueing",
	"fluid", "mpc", "experiment", "cloud", "fault", "runtime", "other",
}

// harness is the pseudo-layer of the benchmark's own frames.
const harness = "harness"

// layerOf maps a fully qualified function name to its layer.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop generic type arguments, which may hold paths
	}
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	if name, ok := strings.CutPrefix(pkg, "vmprov/internal/"); ok {
		for _, l := range layers {
			if name == l {
				return l
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// selfSamples reads a gzipped pprof CPU profile and returns the sample
// count charged to each layer by leaf frame, and the total.
func selfSamples(path string) (map[string]int64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, 0, fmt.Errorf("profile %s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile %s: %w", path, err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("profile %s: %w", path, err)
	}
	by := make(map[string]int64, len(layers)+1)
	var total int64
	for _, s := range prof.samples {
		by[prof.layerOf(s.locs)] += s.count
		total += s.count
	}
	return by, total, nil
}

// layerOf charges one stack, leaf first, to a layer.
func (p *profile) layerOf(locs []uint64) string {
	leaf := ""
	for _, loc := range locs {
		for _, fid := range p.locFuncs[loc] {
			name := ""
			if si, ok := p.funcName[fid]; ok && si >= 0 && si < int64(len(p.strs)) {
				name = p.strs[si]
			}
			if leaf == "" {
				leaf = layerOf(name)
			}
			switch {
			case strings.HasPrefix(name, "main."):
				return harness
			case strings.HasPrefix(name, "vmprov/"):
				if leaf == "runtime" {
					return leaf
				}
				return layerOf(name)
			}
		}
	}
	if leaf == "" {
		return "other"
	}
	return leaf
}

// profile is the part of a pprof profile.proto message self time needs:
// each sample's stack and count, the functions of every location
// (innermost inlined frame first), and function names.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids
	funcName map[uint64]int64    // function id → string table index
	strs     []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profString   = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case profSample:
			var s sample
			haveVal := false
			err := fields(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case sampleLocation:
					return repeated(v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return repeated(v, sub, func(x uint64) {
						if !haveVal {
							s.count, haveVal = int64(x), true
						}
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return fields(sub, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case profFunction:
			var id uint64
			var name int64
			err := fields(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case profString:
			p.strs = append(p.strs, string(msg))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// fields walks the protobuf fields of b, passing each field's number and
// either its varint value or its length-delimited payload.
func fields(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field in either encoding: one value
// per field (msg nil) or packed into one length-delimited payload.
func repeated(v uint64, msg []byte, fn func(uint64)) error {
	if msg == nil {
		fn(v)
		return nil
	}
	r := bytes.NewReader(msg)
	for r.Len() > 0 {
		x, err := binary.ReadUvarint(r)
		if err != nil {
			return errTruncated
		}
		fn(x)
	}
	return nil
}
