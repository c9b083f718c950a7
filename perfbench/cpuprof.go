package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// profile is a CPU profile being written to a file and kept in memory
// for the per-package breakdown.
type profile struct {
	f   *os.File
	buf bytes.Buffer
}

func startProfile(path string) (*profile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	p := &profile{f: f}
	if err := pprof.StartCPUProfile(io.MultiWriter(f, &p.buf)); err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

// stop ends profiling and returns each package bucket's share of the
// profiled CPU time.
func (p *profile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	return packageShares(p.buf.Bytes())
}

// packageShares decodes a gzipped pprof protobuf and charges each
// sample's CPU time to the innermost frame that belongs to one of the
// repository's packages (runtime helpers such as memmove are charged to
// their caller); samples without such a frame are "runtime". The
// decoder reads only the fields this needs.
func packageShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					vals := appendVarints(nil, wire, v, b)
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		bucket := "runtime"
	frames:
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				idx := funcs[fn]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				if b, ok := packageBucket(strs[idx]); ok {
					bucket = b
					break frames
				}
			}
		}
		shares[bucket] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// packageBucket maps a function name to its cpu.<package> bucket when
// the function belongs to the repository or to this benchmark.
func packageBucket(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "perfbench", true
	}
	if !strings.HasPrefix(fn, "nfstricks/") {
		return "", false
	}
	path := fn
	if slash := strings.LastIndexByte(path, '/'); slash >= 0 {
		if dot := strings.IndexByte(path[slash:], '.'); dot >= 0 {
			path = path[:slash+dot]
		}
	}
	pkg := path[strings.LastIndexByte(path, '/')+1:]
	for _, b := range cpuPackages {
		if b == pkg {
			return b, true
		}
	}
	return "other", true
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) and bytes (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

var errBadProto = errors.New("perfbench: malformed CPU profile")

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
