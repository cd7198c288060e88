package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof writes,
// enough to walk each CPU sample's stack. The module has no external
// dependencies, so it decodes the protobuf wire format itself.

// sample is one profile sample: its count, its stack as function names
// from the leaf up, and its pprof label keys.
type sample struct {
	count  int64
	stack  []string
	labels []string
}

// hasLabel reports whether the sample carries a label with this key.
func (s sample) hasLabel(key string) bool {
	for _, k := range s.labels {
		if k == key {
			return true
		}
	}
	return false
}

// parseProfile decodes a (possibly gzipped) pprof profile.
func parseProfile(data []byte) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs      []uint64
		values    []int64
		labelKeys []uint64 // string table indices
	}
	var (
		raws    []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnNames = map[uint64]uint64{}   // function id -> string table index
	)
	err := eachField(data, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wt, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, wt, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				case 3: // label
					return eachField(b, func(num int, wt int, v uint64, b []byte) error {
						if num == 1 {
							s.labelKeys = append(s.labelKeys, v)
						}
						return nil
					})
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wt int, v uint64, b []byte) error {
						if num == 1 {
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
			var name uint64
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return "?"
	}
	out := make([]sample, 0, len(raws))
	for _, r := range raws {
		if len(r.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		s := sample{count: r.values[0]}
		for _, loc := range r.locs {
			for _, fn := range locFns[loc] {
				s.stack = append(s.stack, str(fnNames[fn]))
			}
		}
		for _, k := range r.labelKeys {
			s.labels = append(s.labels, str(k))
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField calls fn for every field of the protobuf message in b. v holds
// varint and fixed-width values, b the bytes of length-delimited fields.
func eachField(b []byte, fn func(num int, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var field []byte
		switch wt {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			field = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, field); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wt int, v uint64, b []byte) error {
	if wt == 0 {
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

// layerTable maps function-name prefixes to layers; the first match wins,
// so the coupling scheduler's types are carved out of package sim.
var layerTable = []struct{ prefix, layer string }{
	{"nectar/internal/sim.(*Coupling)", "pdes"},
	{"nectar/internal/sim.(*Domain)", "pdes"},
	{"nectar/internal/sim.(*parker)", "pdes"},
	{"nectar/internal/sim.", "sim"},
	{"nectar/internal/prof.", "pdes"},
	{"nectar/internal/rt/threads.", "threads"},
	{"nectar/internal/rt/mailbox.", "mailbox"},
	{"nectar/internal/rt/hostif.", "hostif"},
	{"nectar/internal/rt/", "rt_other"},
	{"nectar/internal/nectarine.", "rt_other"},
	{"nectar/internal/sockets.", "rt_other"},
	{"nectar/internal/hw/cab.", "cab"},
	{"nectar/internal/hw/fiber.", "fiber"},
	{"nectar/internal/hw/hub.", "hub"},
	{"nectar/internal/hw/vme.", "vme"},
	{"nectar/internal/hw/", "hw_other"},
	{"nectar/internal/model.", "hw_other"},
	{"nectar/internal/netdev.", "hw_other"},
	{"nectar/internal/proto/datalink.", "datalink"},
	{"nectar/internal/proto/ip.", "ip"},
	{"nectar/internal/proto/icmp.", "ip"},
	{"nectar/internal/proto/tcp.", "tcp"},
	{"nectar/internal/proto/udp.", "udp"},
	{"nectar/internal/proto/nectar.", "nectar"},
	{"nectar/internal/proto/wire.", "wire"},
	{"nectar/internal/obs.", "obs"},
	{"nectar/internal/pool.", "pool"},
	{"nectar/internal/fabric.", "fabric"},
	{"nectar.", "cluster"},
	{"nectar/", "cluster"},
	{"main.", "bench"},
}

// gcFrames and schedFrames classify Go runtime frames (names without the
// "runtime." prefix): allocation and collection, and goroutine parking,
// waking, channel handoff and the OS-level waits under them.
var gcFrames = []string{
	"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap", "makechan",
	"rawstring", "rawbyteslice", "gc", "(*gc", "scan", "greyobject", "markroot", "markBits",
	"findObject", "sweep", "(*sweep", "bgsweep", "bgscavenge", "(*scavenger", "(*mspan)",
	"(*mheap)", "(*mcache)", "(*mcentral)", "(*pageAlloc)", "heapSetType", "wbBuf",
	"bulkBarrier", "_GC",
}

var schedFrames = []string{
	"chansend", "chanrecv", "selectgo", "send", "recv", "gopark", "goready", "ready",
	"park_m", "schedule", "findRunnable", "execute", "gogo", "goexit0", "goexit1", "mcall", "futex",
	"notesleep", "notewakeup", "notetsleep", "semasleep", "semawakeup", "lock2", "unlock2",
	"stopm", "startm", "wakep", "handoffp", "mPark", "runq", "casgstatus", "newproc",
	"usleep", "osyield", "procyield", "acquirep", "releasep", "resetspinning", "stealWork",
	"checkTimers", "(*timers)", "acquireSudog", "releaseSudog", "(*waitq)", "gosched",
	"Gosched", "entersyscall", "exitsyscall",
}

func isRuntimeFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// attribute assigns a sample's stack to one layer. Time in the runtime on
// top of the stack goes to go.gc when any of those frames allocates or
// collects, else to go.sched when any parks, wakes or hands off; other
// runtime work (copying, map access) belongs to the innermost frame of a
// known layer below it. Samples with no such frame are go.other.
func attribute(stack []string) string {
	gc, sched := false, false
	for _, fn := range stack {
		if !isRuntimeFrame(fn) {
			break
		}
		name := fn[strings.IndexByte(fn, '.')+1:]
		gc = gc || hasAnyPrefix(name, gcFrames)
		sched = sched || hasAnyPrefix(name, schedFrames)
	}
	switch {
	case gc:
		return "go.gc"
	case sched:
		return "go.sched"
	}
	for _, fn := range stack {
		for _, row := range layerTable {
			if strings.HasPrefix(fn, row.prefix) {
				return row.layer
			}
		}
	}
	return "go.other"
}

// layerShares attributes every sample and returns each layer's share of
// all samples in percent.
func layerShares(samples []sample) map[string]float64 {
	shares := map[string]float64{}
	for _, l := range layers {
		shares[l] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.count
	}
	if total == 0 {
		return shares
	}
	for _, s := range samples {
		shares[attribute(s.stack)] += 100 * float64(s.count) / float64(total)
	}
	return shares
}
