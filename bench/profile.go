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

// layers are the CPU-split buckets: the simulator's packages, plus
// runtime_bg (stacks with no cloudbench frame: GC workers, scheduler) and
// bench (the harness's own frames).
var layers = []string{
	"sim", "cluster", "storage", "hdfs", "hbase", "cassandra",
	"kv", "ycsb", "stats", "core", "runtime_bg", "bench",
}

// layerOf charges one stack (function names, leaf first) to the leaf-most
// frame in a cloudbench/internal/<layer> package, so time the Go runtime
// spends on a layer's behalf (allocation, map access) is that layer's.
func layerOf(stack []string) string {
	bench := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "cloudbench/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				for _, l := range layers[:len(layers)-2] {
					if rest[:i] == l {
						return l
					}
				}
			}
		} else if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "cloudbench/bench.") {
			bench = true
		}
	}
	if bench {
		return "bench"
	}
	return "runtime_bg"
}

// cpuByLayer decodes a gzipped profile.proto CPU profile and returns CPU
// nanoseconds per layer.
func cpuByLayer(profile []byte) (map[string]int64, error) {
	samples, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(layers))
	for _, s := range samples {
		out[layerOf(s.stack)] += s.cpuNs
	}
	return out, nil
}

type stackSample struct {
	stack []string // function names, leaf first
	cpuNs int64
}

// decodeProfile reads the subset of pprof's profile.proto that a Go CPU
// profile uses (samples → locations → lines → functions → names), by hand:
// the module has no dependencies and must not grow one for a benchmark.
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (leaf first), 2 value (the last is cpu ns)
//	Location: 1 id, 4 line (inlined callee first)
//	Line:     1 function_id
//	Function: 1 id, 2 name (string_table index)
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		rawSamples []rawSample
		locFuncs   = map[uint64][]uint64{} // location id → function ids, leaf first
		funcName   = map[uint64]uint64{}   // function id → string index
		strs       []string
	)
	err = eachField(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s rawSample
			if err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, data)
				case 2:
					if vals := appendVarints(nil, v, data); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			}); err != nil {
				return err
			}
			rawSamples = append(rawSamples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5:
			var id, name uint64
			if err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	samples := make([]stackSample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		s := stackSample{cpuNs: rs.value}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					s.stack = append(s.stack, strs[idx])
				}
			}
		}
		samples = append(samples, s)
	}
	return samples, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message. Varint fields arrive in v,
// length-delimited fields in data; fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
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
			if err := fn(num, v, nil); err != nil {
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
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's payload: one value when
// it came unpacked (data == nil), all of them when packed.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
