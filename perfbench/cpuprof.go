package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"strings"
)

// cpuModules are the pdpasim packages whose CPU share the traced run
// reports, by leaf frame.
var cpuModules = []string{"sim", "machine", "rm", "core", "policy", "qs", "nthlib", "selfanalyzer", "app", "stats", "obs"}

// cpuShares reads a CPU profile written by runtime/pprof and sets
// cpu.<class> to the share of samples whose leaf frame falls in that class.
// The profile format is decoded here, with only the fields this needs,
// because the module takes no dependencies.
func cpuShares(path string, m map[string]float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := decodeProfile(data)
	if err != nil {
		return err
	}
	counts := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		name := ""
		if lines := p.locLines[s.locs[0]]; len(lines) > 0 {
			name = p.strings[p.funcNames[lines[0]]]
		}
		counts[cpuClass(name)] += float64(s.values[0])
		total += float64(s.values[0])
	}
	for _, c := range append(append([]string{}, cpuModules...), "runtime_map", "runtime_gc", "runtime_malloc", "encoding_json", "net_http", "syscall", "other") {
		if total > 0 {
			m["cpu."+c] = counts[c] / total
		} else {
			m["cpu."+c] = 0
		}
	}
	return nil
}

// cpuClass attributes a fully qualified function name to a module or a
// runtime activity.
func cpuClass(fn string) string {
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	short := strings.TrimPrefix(fn, "runtime.")
	switch {
	case strings.HasPrefix(pkg, "pdpasim/internal/"):
		mod := strings.TrimPrefix(pkg, "pdpasim/internal/")
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
		return "other"
	case pkg == "internal/runtime/maps" || pkg == "runtime" && strings.HasPrefix(short, "map"):
		return "runtime_map"
	case pkg == "runtime" && (strings.Contains(short, "gc") || strings.Contains(short, "scan") ||
		strings.Contains(short, "sweep") || strings.Contains(short, "mark") || strings.Contains(short, "grey") ||
		strings.Contains(short, "wbBuf") || strings.Contains(short, "findObject") || strings.Contains(short, "WriteBarrier")):
		return "runtime_gc"
	case pkg == "runtime" && (strings.Contains(short, "alloc") || strings.Contains(short, "mcache") ||
		strings.Contains(short, "mcentral") || strings.Contains(short, "mheap") || strings.Contains(short, "nextFree") ||
		strings.Contains(short, "memclr") || strings.Contains(short, "newobject") || strings.Contains(short, "makeslice") ||
		strings.Contains(short, "growslice") || strings.Contains(short, "newarray") || strings.Contains(short, "heapSetType")):
		return "runtime_malloc"
	case pkg == "encoding/json":
		return "encoding_json"
	case strings.HasPrefix(pkg, "net/http"):
		return "net_http"
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "runtime/internal/syscall" ||
		pkg == "runtime" && (strings.HasPrefix(short, "futex") || strings.HasPrefix(short, "epollwait") ||
			short == "write1" || short == "read" || short == "usleep"):
		return "syscall"
	}
	return "other"
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples   []profSample
	locLines  map[uint64][]uint64 // location ID → function IDs, leaf first
	funcNames map[uint64]int64    // function ID → string table index
	strings   []string
}

// decodeProfile decodes the subset of profile.proto cpuShares reads:
// Profile.sample (2), .location (4), .function (5) and .string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, sub []byte) error {
		switch field {
		case 2:
			var s profSample
			err := eachField(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, sub)
				case 2:
					for _, x := range appendVarints(nil, v, sub) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field given either unpacked (v)
// or packed (sub non-nil) encoding.
func appendVarints(dst []uint64, v uint64, sub []byte) []uint64 {
	if sub == nil {
		return append(dst, v)
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with the varint value
// (wire type 0) or the payload (wire type 2) of each field.
func eachField(b []byte, fn func(field int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
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
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return errors.New("unsupported protobuf wire type")
		}
		if err := fn(field, v, sub); err != nil {
			return err
		}
	}
	return nil
}
