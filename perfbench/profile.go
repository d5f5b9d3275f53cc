package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"

	"repro/internal/raw"
	"repro/internal/router"
)

// profileSummary is what the benchmark reads out of a CPU profile: the
// total CPU time, the CPU time whose innermost layer frame belongs to
// each layer (self time per layer), and the cumulative time of a few
// named functions.
type profileSummary struct {
	totalNS int64
	layerNS map[string]int64
	funcNS  map[string]int64
	// bySpan is funcNS restricted to samples carrying the pprof label
	// span=<key>.
	bySpan map[string]map[string]int64
}

// layerShare returns the fraction of all profiled CPU time whose
// innermost layer frame is in layer.
func (p *profileSummary) layerShare(layer string) float64 {
	return ratio(float64(p.layerNS[layer]), float64(p.totalNS))
}

// funcShare returns the fraction of all profiled CPU time spent under
// fn, one of watchedFuncs.
func (p *profileSummary) funcShare(fn string) float64 {
	return ratio(float64(p.funcNS[fn]), float64(p.totalNS))
}

// Functions whose cumulative CPU time the benchmark reports. The
// exported ones are named through method expressions, so a rename
// breaks the build instead of reading 0; the two unexported ones can
// only be named by string, and setProfileShares fails a run in which
// they draw no samples.
var (
	fnChipStep = funcName((*raw.Chip).Step)
	fnChipRun  = funcName((*raw.Chip).Run)
	fnOffer    = funcName((*router.Router).OfferPacket)
	fnDrain    = funcName((*router.Router).DrainOutput)
)

const (
	fnMacroStep   = "repro/internal/raw.(*fastEngine).macroStep"
	fnMaybeCommit = "repro/internal/raw.(*fifo).maybeCommit"
)

// funcName is the profile name of function f.
func funcName(f any) string { return runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name() }

var watchedFuncs = []string{fnChipStep, fnChipRun, fnMacroStep, fnMaybeCommit, fnOffer, fnDrain}

// layerOf maps a function to the layer it belongs to, or "" for helper
// packages (ip, lookup, mem, rotor, the standard library) whose time is
// charged to the nearest calling layer.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/internal/raw."):
		return "raw"
	case strings.HasPrefix(fn, "repro/internal/router."):
		return "router"
	case strings.HasPrefix(fn, "repro/internal/cluster."):
		return "cluster"
	case strings.HasPrefix(fn, "repro/internal/serve."):
		return "serve"
	case strings.HasPrefix(fn, "repro/internal/traffic."):
		return "traffic"
	case strings.HasPrefix(fn, "repro/internal/telemetry."):
		return "telemetry"
	case strings.HasPrefix(fn, "runtime."):
		return "runtime"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

// summarizeProfile decodes a gzipped pprof CPU profile (profile.proto)
// with the few fields it needs: samples with their location ids and CPU
// nanoseconds, locations with their (inlined) function lines, functions
// and the string table.
func summarizeProfile(path string) (*profileSummary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	type sample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // (key, value) string indexes
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = protoFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return protoPacked(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return protoPacked(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3: // label
					var kv [2]int64
					err := protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	name := func(fid uint64) string { return str(fnName[fid]) }
	sum := &profileSummary{layerNS: map[string]int64{}, funcNS: map[string]int64{}, bySpan: map[string]map[string]int64{}}
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		ns := s.values[1] // CPU profiles carry [samples/count, cpu/nanoseconds]
		sum.totalNS += ns
		layer := ""
		seen := map[string]bool{}
		for _, loc := range s.locs {
			for _, fid := range locFns[loc] {
				fn := name(fid)
				if layer == "" {
					layer = layerOf(fn)
				}
				seen[fn] = true
			}
		}
		if layer == "" {
			layer = "other"
		}
		sum.layerNS[layer] += ns
		spanLabel := ""
		for _, kv := range s.labels {
			if str(kv[0]) == "span" {
				spanLabel = str(kv[1])
			}
		}
		if sum.bySpan[spanLabel] == nil {
			sum.bySpan[spanLabel] = map[string]int64{}
		}
		for _, fn := range watchedFuncs {
			if seen[fn] {
				sum.funcNS[fn] += ns
				sum.bySpan[spanLabel][fn] += ns
			}
		}
	}
	return sum, nil
}

// protoFields walks the fields of one protobuf message, calling f with
// the field number and either the varint value or the bytes of a
// length-delimited field. Fixed-width fields are skipped.
func protoFields(b []byte, f func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := protoVarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := protoVarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := f(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := protoVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes")
			}
			if err := f(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// protoPacked handles a repeated varint field in either encoding: one
// unpacked value (b == nil) or a packed run.
func protoPacked(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := protoVarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

func protoVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
