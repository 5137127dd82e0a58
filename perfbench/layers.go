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

// layers are the simulator's packages under internal/ that run inside
// core.Run, plus runtime (the Go runtime and standard library) and other
// (the benchmark itself, internal packages without a layer of their own such
// as units, and any other module). Every profile sample lands in exactly one
// of them, so their self times sum to the profiled CPU.
var layers = []string{
	"sim", "fabric", "buffer", "host", "cuckoo", "flowtab", "transport",
	"packet", "arena", "metrics", "workload", "topo", "faults", "obs",
	"core", "telemetry", "xrand", "runtime", "other",
}

const modulePrefix = "vertigo/internal/"

// layerOf maps a profile frame's function name to its layer. Type
// parameters are stripped first, so flowtab.(*Table[go.shape.*vertigo/
// internal/host.flowState]).Get belongs to flowtab and not to host.
func layerOf(fn string) string {
	name := stripTypeArgs(fn)
	if rest, ok := strings.CutPrefix(name, modulePrefix); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range layers {
			if l == pkg && l != "runtime" && l != "other" {
				return l
			}
		}
		return "other"
	}
	if isStdlib(name) {
		return "runtime"
	}
	return "other"
}

// isStdlib reports whether a type-argument-free function name belongs to the
// Go runtime or standard library: its import path's first element has no
// dot, and it is neither the main package nor this module. Compiler-generated
// helpers (type:.eq.*, go:*) and symbol-less frames count as runtime too.
func isStdlib(name string) bool {
	if name == "" || strings.HasPrefix(name, "type:") || strings.HasPrefix(name, "go:") {
		return true
	}
	pkg := name
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		if j := strings.IndexByte(name[i:], '.'); j >= 0 {
			pkg = name[:i+j]
		}
	} else if j := strings.IndexByte(name, '.'); j >= 0 {
		pkg = name[:j]
	}
	first, _, _ := strings.Cut(pkg, "/")
	return first != "main" && first != "vertigo" && !strings.Contains(first, ".")
}

// stripTypeArgs removes every bracketed type-argument list from a function
// name, including nested ones.
func stripTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// profileLayerNS decodes a gzipped pprof CPU profile and adds each sample's
// CPU nanoseconds to the layer of its leaf frame. The leaf is the first line
// of the first location: pprof lists inlined calls innermost first, so a
// function inlined into its caller keeps its own layer.
func profileLayerNS(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	vi := -1
	for i, unit := range p.sampleUnits {
		if p.str(unit) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return errors.New("profile: no nanoseconds sample type")
	}
	leafFn := make(map[uint64]uint64, len(p.locations)) // location id → leaf function id
	for _, loc := range p.locations {
		if len(loc.funcs) > 0 {
			leafFn[loc.id] = loc.funcs[0]
		}
	}
	fnName := make(map[uint64]string, len(p.functions))
	for id, nameIdx := range p.functions {
		fnName[id] = p.str(nameIdx)
	}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return errors.New("profile: sample missing its value")
		}
		name := ""
		if len(s.locs) > 0 {
			name = fnName[leafFn[s.locs[0]]]
		}
		into[layerOf(name)] += s.values[vi]
	}
	return nil
}

// profile is the part of profile.proto the ledger reads.
type profile struct {
	sampleUnits []int64 // string index of each sample value's unit
	samples     []profSample
	locations   []location
	functions   map[uint64]int64 // function id → name string index
	strings     []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

type location struct {
	id    uint64
	funcs []uint64 // function id of each line, innermost first
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{functions: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case fProfileSampleType:
			var unit int64
			err := eachField(sub, func(n, _ int, v uint64, _ []byte) error {
				if n == 2 {
					unit = int64(v)
				}
				return nil
			})
			p.sampleUnits = append(p.sampleUnits, unit)
			return err
		case fProfileSample:
			var s profSample
			err := eachField(sub, func(n, w int, v uint64, sb []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, sb)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, sb); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var loc location
			err := eachField(sub, func(n, _ int, v uint64, sb []byte) error {
				switch n {
				case 1:
					loc.id = v
				case 4: // Line
					return eachField(sb, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							loc.funcs = append(loc.funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations = append(p.locations, loc)
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(sub, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends a repeated integer field, packed (wire type 2) or
// not (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, sub []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field's number
// and wire type, and its value (varint) or bytes (length-delimited).
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
