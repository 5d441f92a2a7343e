package main

// Host CPU attribution: a CPU profile of the traced passes, decoded
// here (the pprof protobuf is small enough to walk by hand, and the
// benchmark takes no dependencies) and bucketed by the package of each
// sample's leaf frame.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// simLayers are the simulator's packages; their CPU is quoted per
// simulated reference. serviceLayers are the sweep stack's, with the
// system calls and os package its file and socket I/O goes through;
// their CPU is quoted per work unit. The last two buckets catch the
// rest.
var (
	simLayers     = []string{"sim", "system", "cache", "intern", "blockmap", "dir", "core", "mesh", "dram", "trace", "runtime_gc", "runtime_alloc"}
	serviceLayers = []string{"runstore", "sweepd", "snapshot", "net_http", "crypto_sha256", "encoding_json", "syscall"}
	restLayers    = []string{"runtime_other", "other"}
)

// layerOf maps a profiled function name such as
// "tinydir/internal/cache.(*Cache).Lookup" or "runtime.mallocgc" to its
// layer bucket.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if name, ok := strings.CutPrefix(pkg, "tinydir/internal/"); ok {
		for _, l := range simLayers[:10] {
			if name == l {
				return l
			}
		}
		for _, l := range serviceLayers[:3] {
			if name == l {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "runtime":
		return runtimeLayer(fn)
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "crypto/sha256" || strings.HasSuffix(pkg, "/fips140/sha256"):
		return "crypto_sha256"
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "syscall" || pkg == "internal/poll" || pkg == "internal/runtime/syscall" || pkg == "os":
		return "syscall"
	}
	return "other"
}

// packageOf returns the import path of a profiled function's package.
// Type arguments ("Map[go.shape.int]") may contain dots and slashes, so
// the name is cut at the first bracket before looking.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// runtimeLayer splits the runtime into allocation, garbage collection
// and the rest (scheduler, maps, copies, syscalls).
func runtimeLayer(fn string) string {
	name := strings.TrimPrefix(fn, "runtime.")
	for _, s := range []string{"malloc", "mcache", "mcentral", "mheap", "newobject", "newarray", "makeslice", "growslice", "nextFree", "memclrNoHeapPointers", "heapSetType", "HeapBits"} {
		if strings.Contains(name, s) {
			return "runtime_alloc"
		}
	}
	for _, s := range []string{"gc", "scanobject", "greyobject", "markBits", "findObject", "scanblock", "scanframe", "scanstack", "sweep", "wbBuf", "Barrier", "markroot", "typePointers"} {
		if strings.Contains(name, s) {
			return "runtime_gc"
		}
	}
	return "runtime_other"
}

// cpuByLayer decodes a gzipped pprof CPU profile and sums each sample's
// CPU time (its last value, in nanoseconds) into its leaf frame's layer.
// It also returns the number of samples.
func cpuByLayer(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]int64{}
	var n int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		name := "?"
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			name = p.strings[p.funcNames[fns[0]]]
		}
		out[layerOf(name)] += s.values[len(s.values)-1]
		n++
	}
	return out, n, nil
}

// profile holds the parts of a pprof Profile message the bucketing
// reads: samples, each location's function ids (leaf first, inlined
// frames before their caller), function name string indices, and the
// string table.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64
	funcNames map[uint64]int64
	strings   []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := walk(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			err := walk(sub, func(f, w int, v uint64, sub []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, sub)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, sub); err != nil {
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
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walk(sub, func(f, w int, v uint64, sub []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walk(sub, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walk(sub, func(f, w int, v uint64, _ []byte) error {
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
		case 6: // string_table
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, sub []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

// walk calls fn for each field of a protobuf message: varints carry v,
// length-delimited fields carry sub; fixed-width fields are skipped.
func walk(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad tag")
		}
		b = b[n:]
		field, wire := int(tag>>3), int(tag&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
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
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
