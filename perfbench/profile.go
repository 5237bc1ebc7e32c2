package main

// CPU attribution by package. The harness takes a runtime/pprof CPU
// profile of the traced run and decodes the few profile.proto fields it
// needs (samples, locations, functions, strings) with a minimal protobuf
// reader, so the benchmark depends on nothing outside the standard
// library.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// stackSample is one profile sample: its weight and the function names
// on its stack, innermost first.
type stackSample struct {
	weight int64
	funcs  []string
}

// profileModules are the packages cpu_share.<name> reports, keyed by the
// metric suffix.
var profileModules = []struct{ name, pkg string }{
	{"condorg", "condorg/internal/condorg"},
	{"journal", "condorg/internal/journal"},
	{"wire", "condorg/internal/wire"},
	{"gram", "condorg/internal/gram"},
	{"gass", "condorg/internal/gass"},
	{"gsi", "condorg/internal/gsi"},
	{"lrm", "condorg/internal/lrm"},
	{"obs", "condorg/internal/obs"},
	{"encoding_json", "encoding/json"},
	{"syscall", "syscall"},
}

// cpuShares returns, per profileModules entry, the weighted share of
// samples whose stack holds a function of that package. Shares overlap:
// a sample in json.Marshal called from wire counts for both.
func cpuShares(samples []stackSample) map[string]float64 {
	var total int64
	hits := make(map[string]int64)
	for _, s := range samples {
		total += s.weight
		seen := make(map[string]bool)
		for _, fn := range s.funcs {
			seen[packageOf(fn)] = true
		}
		for _, m := range profileModules {
			if seen[m.pkg] {
				hits[m.name] += s.weight
			}
		}
	}
	out := make(map[string]float64, len(profileModules))
	for _, m := range profileModules {
		if total > 0 {
			out[m.name] = float64(hits[m.name]) / float64(total)
		} else {
			out[m.name] = 0
		}
	}
	return out
}

// parseProfile decodes a (gzipped) profile.proto into stack samples,
// weighting each by its first value (the sample count for CPU profiles).
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funcNames = make(map[uint64]uint64)   // function id -> string index
		strs      []string
	)
	err := eachField(data, func(field int, wt int, v uint64, b []byte) error {
		switch {
		case field == 2 && wt == 2: // Sample
			var s rawSample
			err := eachField(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, b)
				case 2:
					s.values = appendVarints(s.values, wt, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case field == 4 && wt == 2: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, wt int, v uint64, b []byte) error {
				switch {
				case f == 1 && wt == 0:
					id = v
				case f == 4 && wt == 2: // Line
					return eachField(b, func(f, wt int, v uint64, _ []byte) error {
						if f == 1 && wt == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case field == 5 && wt == 2: // Function
			var id, name uint64
			err := eachField(b, func(f, wt int, v uint64, _ []byte) error {
				if wt == 0 {
					switch f {
					case 1:
						id = v
					case 2:
						name = v
					}
				}
				return nil
			})
			funcNames[id] = name
			return err
		case field == 6 && wt == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{weight: 1}
		if len(s.values) > 0 {
			st.weight = int64(s.values[0])
		}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcNames[fid]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and varint value (wire type 0) or bytes (type 2).
func eachField(b []byte, fn func(field, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
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
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(field, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// value (wire type 0) or a packed run (wire type 2).
func appendVarints(dst []uint64, wt int, v uint64, packed []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
