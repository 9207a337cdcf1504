package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuLayers maps a package prefix of a Go function name to the
// cpu.<layer> metric its samples count towards.
var cpuLayers = []struct{ prefix, metric string }{
	{"repro/internal/nsim.", "cpu.nsim"},
	{"repro/internal/core.", "cpu.core"},
	{"repro/internal/window.", "cpu.window"},
	{"repro/internal/routing.", "cpu.routing"},
	{"repro/internal/datalog/eval.", "cpu.eval"},
	{"repro/internal/serve.", "cpu.serve"},
}

// gcRoots are the runtime functions that run collector work; a sample
// whose stack holds one counts towards cpu.gc.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// cpuShares reads a CPU profile written by runtime/pprof and returns,
// per layer, the percentage of sampled CPU time spent there. A sample
// belongs to the innermost frame of a tracked package, so time in the
// runtime, maps or untracked helpers counts towards the layer that
// called them; collector work counts as cpu.gc.
func cpuShares(gz []byte) (map[string]float64, error) {
	out := map[string]float64{"cpu.gc": 0}
	for _, l := range cpuLayers {
		out[l.metric] = 0
	}
	if len(gz) == 0 {
		return out, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	var total int64
	for _, s := range p.samples {
		total += s.value
		if m := sampleLayer(p, s.locs); m != "" {
			out[m] += float64(s.value)
		}
	}
	if total > 0 {
		for k := range out {
			out[k] = 100 * out[k] / float64(total)
		}
	}
	return out, nil
}

// sampleLayer names the metric a sample's stack counts towards, or ""
// when no tracked package is on it.
func sampleLayer(p *profile, locs []uint64) string {
	var names []string
	for _, id := range locs {
		for _, fn := range p.locations[id] {
			name := p.strings[p.functions[fn]]
			if gcRoots[name] {
				return "cpu.gc"
			}
			names = append(names, name)
		}
	}
	for _, name := range names {
		for _, l := range cpuLayers {
			if strings.HasPrefix(name, l.prefix) {
				return l.metric
			}
		}
	}
	return ""
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // last sample value: CPU nanoseconds
}

// parseProfile decodes the profile.proto fields cpuShares reads.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					if sub != nil {
						return eachPacked(sub, func(x uint64) { s.locs = append(s.locs, x) })
					}
					s.locs = append(s.locs, v)
				case 2:
					if sub != nil {
						return eachPacked(sub, func(x uint64) { s.value = int64(x) })
					}
					s.value = int64(v)
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, fns := range p.locations {
		for _, fn := range fns {
			if idx := p.functions[fn]; idx < 0 || int(idx) >= len(p.strings) {
				return nil, errors.New("profile: function name out of range")
			}
		}
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField calls f for every field of a protobuf message: v holds a
// varint value, sub a length-delimited payload (nil otherwise).
// Fixed-width fields are skipped.
func eachField(b []byte, f func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := f(num, 0, sub); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return errors.New("profile: unsupported wire type")
		}
	}
	return nil
}

// eachPacked calls f for every varint of a packed repeated field.
func eachPacked(b []byte, f func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		f(v)
		b = b[n:]
	}
	return nil
}
