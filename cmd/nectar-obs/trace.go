package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"

	"nectar/internal/bench"
	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/sim"
)

// runTrace runs a single exchange with the typed trace sink installed and
// prints three views of the virtual-time record: the event timeline, the
// span tree and, for the one-way transports, the Figure 6 stage
// breakdown with the paper's host / host-CAB interface / CAB-to-CAB
// buckets, attributed by bench.Fig6Attribute exactly as nectar-bench fig6
// attributes it.
func runTrace(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	proto := fs.String("proto", "datagram", "transport to trace: datagram | rmp | rrp")
	size := fs.Int("size", 4, "message size in bytes")
	quiet := fs.Bool("q", false, "suppress the raw event timeline")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	switch *proto {
	case "datagram", "rmp", "rrp":
	default:
		return fmt.Errorf("%w: unknown -proto %q (want datagram, rmp or rrp)", errUsage, *proto)
	}

	run, err := bench.Fig6Exchange(model.Default1990(), *proto, *size)
	if err != nil {
		return err
	}
	an, events := run.Anchors, run.Events
	start := an.Start

	fmt.Fprintf(stdout, "trace: %s, %d bytes, node %d -> node %d\n", *proto, *size, an.Sender, an.Receiver)
	fmt.Fprintf(stdout, "end-to-end completion: %v (%d events)\n", sim.Duration(run.End-start), len(events))

	if !*quiet {
		fmt.Fprintf(stdout, "\n%12s  %10s  event\n", "t (us)", "delta")
		prev := start
		for _, e := range events {
			fmt.Fprintf(stdout, "%12.3f  %+9.3f  n%d %-8s %-7s %s%s\n",
				float64(e.At-start)/1e3, float64(e.At-prev)/1e3,
				e.Node, e.Layer, e.Kind, e.Name, eventDetail(e))
			prev = e.At
		}
	}

	printSpanTree(stdout, events, start)
	if *proto == "rrp" {
		// The RRP server answers from the CAB; the one-way breakdown
		// does not apply to the round trip.
		return nil
	}
	r, err := bench.Fig6Attribute(*proto, events, an)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%s", r.Format())
	return nil
}

func eventDetail(e obs.Event) string {
	var sb strings.Builder
	if e.Arg != "" {
		sb.WriteString(" " + e.Arg)
	}
	if e.Seq != 0 {
		fmt.Fprintf(&sb, " seq=%d", e.Seq)
	}
	if e.Bytes != 0 {
		fmt.Fprintf(&sb, " len=%d", e.Bytes)
	}
	return sb.String()
}

// printSpanTree reconstructs Begin/End pairs and prints them nested by
// causal parent.
func printSpanTree(w io.Writer, events []obs.Event, start sim.Time) {
	type span struct {
		id, parent obs.SpanID
		begin, end sim.Time
		node       int
		layer      obs.Layer
		name       string
		bytes      int
		children   []obs.SpanID
	}
	spans := map[obs.SpanID]*span{}
	var roots []obs.SpanID
	for _, e := range events {
		switch e.Kind {
		case obs.Begin:
			spans[e.Span] = &span{id: e.Span, parent: e.Parent, begin: e.At, end: e.At,
				node: e.Node, layer: e.Layer, name: e.Name, bytes: e.Bytes}
		case obs.End:
			if s, ok := spans[e.Span]; ok {
				s.end = e.At
			}
		}
	}
	for _, s := range spans {
		if p, ok := spans[s.parent]; ok && s.parent != 0 {
			p.children = append(p.children, s.id)
		} else {
			roots = append(roots, s.id)
		}
	}
	if len(spans) == 0 {
		return
	}
	sortIDs := func(ids []obs.SpanID) {
		sort.Slice(ids, func(i, j int) bool {
			si, sj := spans[ids[i]], spans[ids[j]]
			if si.begin != sj.begin {
				return si.begin < sj.begin
			}
			return si.id < sj.id
		})
	}
	fmt.Fprintf(w, "\nspans:\n")
	var walk func(id obs.SpanID, depth int)
	walk = func(id obs.SpanID, depth int) {
		s := spans[id]
		detail := ""
		if s.bytes != 0 {
			detail = fmt.Sprintf(" len=%d", s.bytes)
		}
		fmt.Fprintf(w, "  %s%8.3fus +%8.3fus  n%d %s.%s%s\n",
			strings.Repeat("  ", depth), float64(s.begin-start)/1e3,
			float64(s.end-s.begin)/1e3, s.node, s.layer, s.name, detail)
		sortIDs(s.children)
		for _, c := range s.children {
			walk(c, depth+1)
		}
	}
	sortIDs(roots)
	for _, r := range roots {
		walk(r, 0)
	}
}
