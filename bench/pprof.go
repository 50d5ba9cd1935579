package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a pprof CPU profile (profile.proto, as
// runtime/pprof writes it) the attribution needs: each sample's stack of
// function names, leaf first, and its CPU time.
type profile struct {
	samples []profSample
}

type profSample struct {
	stack []string // function names, innermost (leaf) first
	ns    int64
}

// parseProfile decodes a gzip-compressed profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs        []string
		sampleTypes [][2]int64 // (type, unit) string indices
		rawSamples  []struct{ locs, vals []uint64 }
		locLines    = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		funcName    = map[uint64]int64{}    // function ID -> name string index
	)
	err = forFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var st [2]int64
			err := forFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					st[f-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, st)
			return err
		case 2: // sample
			var s struct{ locs, vals []uint64 }
			err := forFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					return appendPacked(&s.vals, v, b)
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return forFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := forFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	valIdx := -1
	for i, st := range sampleTypes {
		if str(st[0]) == "cpu" && str(st[1]) == "nanoseconds" {
			valIdx = i
		}
	}
	if valIdx < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	p := &profile{}
	for _, s := range rawSamples {
		if valIdx >= len(s.vals) {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, profSample{stack: stack, ns: int64(s.vals[valIdx])})
	}
	return p, nil
}

// forFields walks one protobuf message, calling fn with each field's
// number and its varint value (wire type 0) or bytes (wire type 2).
// Fixed-width fields are skipped; profile.proto uses none that matter.
func forFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerPackages maps the repo's package paths to the layer names of the
// host_share metrics.
var layerPackages = []struct{ pkg, layer string }{
	{"mlimp/internal/event/parsim", "parsim"},
	{"mlimp/internal/event", "event"},
	{"mlimp/internal/graph", "graph"},
	{"mlimp/internal/predict", "predict"},
	{"mlimp/internal/mlp", "mlp"},
	{"mlimp/internal/sched", "sched"},
	{"mlimp/internal/cluster", "cluster"},
	{"mlimp/internal/serve", "serve"},
	{"mlimp/internal/runtime", "runtime"},
	{"mlimp/internal/kernels", "kernels"},
}

// hostLayers lists the host_share layers in report order.
var hostLayers = []string{"graph", "predict", "mlp", "sched", "cluster", "parsim",
	"event", "serve", "runtime", "kernels", "gc", "other"}

// funcPackage returns the import path of a symbol name such as
// "mlimp/internal/graph.(*Sampler).Sample".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may hold slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf attributes one sample to a layer. Garbage-collector work goes
// to gc. Otherwise the innermost frame in one of the repo's layer
// packages takes the sample, so time in the standard library and the Go
// runtime (map lookups, allocation) is charged to the layer that called
// it; samples with no such frame go to other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return "gc"
		}
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		for _, lp := range layerPackages {
			if pkg == lp.pkg {
				return lp.layer
			}
		}
	}
	return "other"
}

// shares returns each layer's share of the profile's CPU time.
func (p *profile) shares() map[string]float64 {
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		byLayer[layerOf(s.stack)] += s.ns
		total += s.ns
	}
	out := map[string]float64{}
	for _, l := range hostLayers {
		out[l] = share64(byLayer[l], total)
	}
	return out
}

// cumulative returns the CPU time of the samples with fn anywhere on
// their stack, in seconds.
func (p *profile) cumulative(fn string) float64 {
	var ns int64
	for _, s := range p.samples {
		for _, f := range s.stack {
			if f == fn {
				ns += s.ns
				break
			}
		}
	}
	return float64(ns) / 1e9
}
