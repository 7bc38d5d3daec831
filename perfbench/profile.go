package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// The traced run attributes CPU and allocation samples from runtime/pprof
// profiles of this process to the repo's modules. The profile format is
// gzipped protobuf; the decoder below reads the handful of fields the
// attribution needs (samples, locations, functions, string table).

// modulePrefix is the import-path prefix of the program's modules.
const modulePrefix = "dmpstream/internal/"

// layerOf names the layer a function belongs to: the module under
// internal/, with core split by role (server, player, receiver), "bench"
// for the benchmark's own code, "" for anything outside the repo.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		if strings.HasPrefix(fn, "dmpstream.") {
			return "facade"
		}
		return ""
	}
	mod, sym, _ := strings.Cut(rest, ".")
	if mod != "core" {
		return mod
	}
	switch {
	case strings.HasPrefix(sym, "(*Server)"), strings.HasPrefix(sym, "(*Session)"):
		return "core.server"
	case strings.HasPrefix(sym, "Play"):
		return "core.player"
	case strings.HasPrefix(sym, "(*Receiver)"), strings.HasPrefix(sym, "(*Client)"), strings.HasPrefix(sym, "Receive"):
		return "core.receiver"
	default:
		return "core.other"
	}
}

// pbuf is a protobuf wire-format reader.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field reads the next field: its number, wire type, and either its
// varint value or its length-delimited bytes.
func (p *pbuf) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("profile: wire type %d", wire)
	}
	return num, wire, v, data, err
}

// varints appends a repeated integer field, packed or not.
func varints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	q := pbuf{data}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes a gzipped pprof profile into its samples and a
// location id → innermost-first function names table.
func parseProfile(raw []byte) ([]profSample, map[uint64][]string, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	var (
		samples  []profSample
		strs     []string
		funcName = map[uint64]int64{}    // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	p := pbuf{body}
	for len(p.b) > 0 {
		num, _, _, data, err := p.field()
		if err != nil {
			return nil, nil, err
		}
		switch num {
		case 2: // Sample
			var s profSample
			q := pbuf{data}
			for len(q.b) > 0 {
				n, w, v, d, err := q.field()
				if err != nil {
					return nil, nil, err
				}
				switch n {
				case 1:
					if s.locs, err = varints(s.locs, w, v, d); err != nil {
						return nil, nil, err
					}
				case 2:
					var vals []uint64
					if vals, err = varints(nil, w, v, d); err != nil {
						return nil, nil, err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, d, err := q.field()
				if err != nil {
					return nil, nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					r := pbuf{d}
					for len(r.b) > 0 {
						ln, _, lv, _, err := r.field()
						if err != nil {
							return nil, nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, _, err := q.field()
				if err != nil {
					return nil, nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(data))
		}
	}
	locNames := make(map[uint64][]string, len(locFuncs))
	for id, fns := range locFuncs {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			if i := funcName[f]; i >= 0 && int(i) < len(strs) {
				names = append(names, strs[i])
			}
		}
		locNames[id] = names
	}
	return samples, locNames, nil
}

// attribute sums value index vi of every sample by the layer of its
// innermost frame that belongs to the repo ("runtime" when none does).
func attribute(raw []byte, vi int) (map[string]int64, error) {
	samples, locNames, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		if vi >= len(s.values) {
			continue
		}
		layer := "runtime"
	find:
		for _, loc := range s.locs { // leaf first
			for _, fn := range locNames[loc] { // innermost inlined frame first
				if l := layerOf(fn); l != "" {
					layer = l
					break find
				}
			}
		}
		out[layer] += s.values[vi]
	}
	return out, nil
}

// profileBreakdown prints the whole CPU attribution of a traced run, per
// frame, beside the per-layer metrics: where the rest of the time went.
func profileBreakdown(o *outcome, cpuBy map[string]int64, frames int64) {
	for layer, ns := range cpuBy {
		o.extra["profile."+layer+"_ns_per_frame"] = metric{float64(ns) / float64(frames), "ns"}
	}
}

// cpuProfile records a CPU profile of the process between start and stop.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns CPU nanoseconds by layer.
func (p *cpuProfile) stop() (map[string]int64, error) {
	pprof.StopCPUProfile()
	return attribute(p.buf.Bytes(), 1) // [samples/count, cpu/nanoseconds]
}

// allocsByLayer returns cumulative allocated objects by layer, as of a
// fresh garbage collection (the heap profile reports up to the last one).
func allocsByLayer() (map[string]int64, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("allocs profile: %w", err)
	}
	return attribute(buf.Bytes(), 0) // [alloc_objects, alloc_space, inuse_objects, inuse_space]
}
