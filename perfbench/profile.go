package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profileModules are the modules whose CPU share the traced run reports
// as profile.self_frac.<module>: each sample is charged to the module of
// its leaf frame, or to gc when any frame belongs to the collector.
var profileModules = []string{"service", "rsm", "consensus", "conciliator", "adoptcommit", "memory", "sim", "sched", "des", "fault", "net_http", "gc"}

// gcFrames are runtime functions whose presence anywhere in a stack
// marks the sample as garbage-collection work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.sweepone",
	"runtime.markroot", "runtime.scanobject", "runtime.gcDrain",
}

// profileShares accumulates CPU-profile samples by module across the
// traced passes.
type profileShares struct {
	total    int64
	byModule map[string]int64
}

func newProfileShares() *profileShares {
	return &profileShares{byModule: map[string]int64{}}
}

// start begins a CPU profile; the returned function stops it and folds
// the samples in.
func (p *profileShares) start() (func() error, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return p.addProfile(buf.Bytes())
	}, nil
}

func (p *profileShares) metrics() map[string]metric {
	out := make(map[string]metric, len(profileModules))
	for _, m := range profileModules {
		v := 0.0
		if p.total > 0 {
			v = float64(p.byModule[m]) / float64(p.total)
		}
		out["profile.self_frac."+m] = metric{v, "fraction"}
	}
	return out
}

// moduleOf maps a fully qualified function name to its module.
func moduleOf(fn string) string {
	if i := strings.Index(fn, "/internal/"); i >= 0 && strings.HasPrefix(fn, "github.com/oblivious-consensus/conciliator/") {
		rest := fn[i+len("/internal/"):]
		if j := strings.IndexAny(rest, "./"); j >= 0 {
			rest = rest[:j]
		}
		return rest
	}
	if strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "net/http/") {
		return "net_http"
	}
	return "other"
}

// addProfile decodes a gzipped pprof profile (the subset of
// profile.proto a CPU profile needs) and charges its samples.
func (p *profileShares) addProfile(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("read CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("read CPU profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			var values []int64
			if err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						values = append(values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = values[0]
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := protoFields(b, func(f int, v uint64, b []byte) error {
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
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("decode CPU profile: %w", err)
	}
	name := func(fn uint64) string {
		if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	for _, s := range samples {
		p.total += s.count
		mod := "other"
		for i, loc := range s.locs {
			for j, fn := range locFns[loc] {
				n := name(fn)
				if i == 0 && j == 0 {
					mod = moduleOf(n)
				}
				for _, g := range gcFrames {
					if strings.HasPrefix(n, g) {
						mod = "gc"
					}
				}
			}
		}
		p.byModule[mod] += s.count
	}
	return nil
}

// appendPacked appends a repeated varint field's values, whether it was
// encoded packed (b holds varints) or as a single varint v.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// protoFields walks one protobuf message, calling fn with each field's
// number and either its varint value (b nil) or its bytes.
func protoFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

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
