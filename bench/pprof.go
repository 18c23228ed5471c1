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

// foldProfile decodes a runtime/pprof CPU profile (gzipped protobuf)
// and folds each sample onto a layer: the package of the innermost
// frame whose function lives under plus/, inlined frames included, or
// "runtime" when no frame does. It returns samples per layer.
func foldProfile(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		out[p.layerOf(s.locs)] += s.count
	}
	return out, nil
}

type profSample struct {
	locs  []uint64 // location ids, leaf first
	count int64    // the first sample value: number of samples
}

type profile struct {
	samples []profSample
	lines   map[uint64][]uint64 // location id → function ids, innermost first
	funcs   map[uint64]int64    // function id → name's string-table index
	strs    []string
}

func (p *profile) layerOf(locs []uint64) string {
	for _, loc := range locs {
		for _, fn := range p.lines[loc] {
			idx := p.funcs[fn]
			if idx < 0 || int(idx) >= len(p.strs) {
				continue
			}
			if name := p.strs[idx]; strings.HasPrefix(name, "plus/") || strings.HasPrefix(name, "plus.") {
				return layerOfFunc(name)
			}
		}
	}
	return "runtime"
}

// layerOfFunc maps a plus/ function name to its layer: the package's
// last element for the internal packages that are layers, "apps" for
// the workloads and their libraries, "other" for the rest.
func layerOfFunc(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may hold other packages' paths
	}
	pkg := name
	if slash := strings.LastIndexByte(name, '/'); slash >= 0 {
		if dot := strings.IndexByte(name[slash:], '.'); dot >= 0 {
			pkg = name[:slash+dot]
		}
	}
	switch {
	case strings.HasPrefix(pkg, "plus/internal/"):
		switch l := strings.TrimPrefix(pkg, "plus/internal/"); l {
		case "sim", "mesh", "coherence", "kernel", "mmu", "proc", "stats", "core":
			return l
		}
	case strings.HasPrefix(pkg, "plus/apps/"), pkg == "plus/work", pkg == "plus/sync", pkg == "plus/placement":
		return "apps"
	}
	return "other"
}

// parseProfile reads the few fields of the profile.proto message the
// fold needs: samples (field 2), locations (4), functions (5) and the
// string table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{lines: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s profSample
			vals := 0
			err := eachField(sub, func(num int, v uint64, packed []byte) error {
				switch num {
				case 1:
					return eachUint(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachUint(v, packed, func(x uint64) {
						if vals == 0 {
							s.count = int64(x)
						}
						vals++
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num int, v uint64, line []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.lines[id] = fns
			return err
		case 5:
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
			p.funcs[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(sub))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, calling f with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; the profile uses none the fold needs.
func eachField(b []byte, f func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := f(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// eachUint yields a repeated integer field's values: one varint, or a
// packed run of them.
func eachUint(v uint64, packed []byte, f func(uint64)) error {
	if packed == nil {
		f(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n == 0 {
			return errTruncated
		}
		f(x)
		packed = packed[n:]
	}
	return nil
}

// uvarint decodes a varint, returning n == 0 on malformed input.
func uvarint(b []byte) (uint64, int) {
	x, n := binary.Uvarint(b)
	if n < 0 {
		return 0, 0
	}
	return x, n
}
