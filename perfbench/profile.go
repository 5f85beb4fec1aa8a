package main

// CPU profile split: a traced run profiles every other timed unit with
// runtime/pprof and attributes each sample's self time (its innermost
// frame) to the package that frame belongs to, grouped into the module
// layers the per-layer metrics are named after. The profile is decoded
// here with a minimal protobuf reader, so the split needs nothing beyond
// the standard library.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strings"
)

// profileBuckets are the layer groups, in report order; "other" takes
// every package no other bucket claims.
var profileBuckets = []string{"cpu", "rng", "trace", "memside", "energy", "stats",
	"engine", "server", "cluster", "json", "sha256", "net_http", "syscall", "runtime", "other"}

// bucketOf maps a package import path to its layer group.
func bucketOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "malec/internal/"); ok {
		switch rest {
		case "cpu", "rng", "trace", "energy", "stats", "engine", "server", "cluster":
			return rest
		case "core", "cache", "tlb", "waytable", "buffers", "mem":
			return "memside"
		case "metrics":
			return "server" // the server's request instrumentation
		}
		return "other"
	}
	switch {
	case pkg == "encoding/json":
		return "json"
	case strings.Contains(pkg, "sha256"):
		return "sha256"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/") || pkg == "net/textproto" ||
		pkg == "mime" || pkg == "net/url":
		return "net_http"
	case pkg == "syscall" || pkg == "internal/poll" || pkg == "net" || pkg == "os" ||
		strings.HasPrefix(pkg, "internal/syscall") || pkg == "internal/runtime/syscall":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	}
	return "other"
}

// packageOf extracts the import path from a symbol name such as
// "malec/internal/cpu.(*machine).step" or "encoding/json.Marshal". Bare
// names ("gcWriteBarrier", "aeshashbody") are runtime assembly.
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "runtime"
	}
	return fn[:slash+1+dot]
}

// profileSplit accumulates self-time samples by bucket over any number of
// profiled intervals.
type profileSplit struct {
	buf     bytes.Buffer
	samples map[string]int64 // by bucket
	other   map[string]int64 // by package, for the "other" bucket
	total   int64
}

// start begins one profiled interval.
func (p *profileSplit) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

// stop ends the interval and folds its samples into the split.
func (p *profileSplit) stop() error {
	pprof.StopCPUProfile()
	counts, err := selfSamples(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("decode cpu profile: %w", err)
	}
	if p.samples == nil {
		p.samples, p.other = make(map[string]int64), make(map[string]int64)
	}
	for fn, n := range counts {
		pkg := packageOf(fn)
		bk := bucketOf(pkg)
		p.samples[bk] += n
		if bk == "other" {
			p.other[pkg] += n
		}
		p.total += n
	}
	return nil
}

// topOther returns the n packages with the most samples in "other".
func (p *profileSplit) topOther(n int) []string {
	pkgs := make([]string, 0, len(p.other))
	for pkg := range p.other {
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return p.other[pkgs[i]] > p.other[pkgs[j]] })
	out := make([]string, 0, n)
	for _, pkg := range pkgs[:min(n, len(pkgs))] {
		out = append(out, fmt.Sprintf("%s=%d", pkg, p.other[pkg]))
	}
	return out
}

// share returns a bucket's fraction of all self samples.
func (p *profileSplit) share(bucket string) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.samples[bucket]) / float64(p.total)
}

// selfSamples decodes a gzipped pprof profile and returns the sample
// count (the first sample value) per innermost function name.
func selfSamples(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		samples   [][2]uint64           // (leaf location id, count)
		locLeaf   = map[uint64]uint64{} // location id -> innermost function id
		funcNames = map[uint64]uint64{} // function id -> name string index
	)
	// Field numbers from profile.proto: Profile.sample=2, .location=4,
	// .function=5, .string_table=6; Sample.location_id=1, .value=2;
	// Location.id=1, .line=4; Line.function_id=1; Function.id=1, .name=2.
	err = eachField(raw, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var locs, vals []uint64
			if err := eachField(msg, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&locs, v, b)
				case 2:
					return appendPacked(&vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, [2]uint64{locs[0], vals[0]})
			}
		case 4:
			var id, fn uint64
			first := true
			if err := eachField(msg, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					if !first {
						return nil // later lines are the callers it was inlined into
					}
					first = false
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLeaf[id] = fn
		case 5:
			var id, name uint64
			if err := eachField(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range samples {
		name := "?"
		if idx, ok := funcNames[locLeaf[s[0]]]; ok && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[name] += int64(s[1])
	}
	return out, nil
}

// appendPacked appends one varint field value, or every value of a packed
// repeated field.
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

// eachField walks the top-level fields of one protobuf message, passing
// varint fields as v (msg nil) and length-delimited fields as msg.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, msg); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", typ)
		}
	}
	return nil
}

// uvarint decodes one protobuf varint, returning the value and its length
// (<= 0 on malformed input).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
