// Benchmarks regenerating the paper's evaluation, one per table/figure
// plus the quoted micro-measurements and ablations. Each benchmark runs
// the full virtual-time experiment per iteration and reports the measured
// quantity as a custom metric next to the paper's anchor, so
// `go test -bench=. -benchmem` reproduces the entire §6 evaluation.
package nectar_test

import (
	"fmt"
	"strings"
	"testing"

	"nectar"
	"nectar/internal/bench"
	"nectar/internal/fabric"
	"nectar/internal/model"
)

// metricName makes a protocol/curve label safe for ReportMetric units
// (benchmark metric units must not contain whitespace).
func metricName(label, suffix string) string {
	label = strings.NewReplacer(" ", "", "(", "", ")", "", "/", "").Replace(label)
	return label + suffix
}

// BenchmarkTable1_RoundTripLatency regenerates Table 1 (round-trip
// latency for the datagram, RMP, request-response and UDP protocols,
// host-host and CAB-CAB). Paper anchors: datagram 325/179 µs; RPC <500 µs.
func BenchmarkTable1_RoundTripLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Table1(model.Default1990())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.HostHostUS, metricName(row.Proto, "_hh_us"))
			b.ReportMetric(row.CABCABUS, metricName(row.Proto, "_cc_us"))
		}
	}
}

// BenchmarkFig6_OneWayDatagram regenerates Figure 6 (one-way host-to-host
// datagram latency breakdown). Paper anchors: 163 µs total, ~20 % host /
// ~40 % interface / ~40 % CAB-to-CAB.
func BenchmarkFig6_OneWayDatagram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig6(model.Default1990())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TotalUS, "oneway_us")
		b.ReportMetric(r.HostPct, "host_pct")
		b.ReportMetric(r.InterfacePct, "interface_pct")
		b.ReportMetric(r.CABPct, "cabcab_pct")
	}
}

// BenchmarkFig7_CABToCABThroughput regenerates Figure 7 at the 8 KB
// point for all three curves. Paper anchors: RMP ~90 Mbit/s; TCP w/o
// checksum almost as fast as RMP; TCP/IP below both.
func BenchmarkFig7_CABToCABThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, _, err := bench.Fig7(model.Default1990(), []int{8192})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range curves {
			b.ReportMetric(c.Points[0].Mbps, metricName(c.Name, "_8k_mbps"))
		}
	}
}

// BenchmarkFig7_SmallMessages checks Figure 7's doubling region: per the
// paper, "for small packets (up to 256 bytes), the per-packet overhead
// dominates ... and the throughput doubles when the packet size doubles".
func BenchmarkFig7_SmallMessages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, _, err := bench.Fig7(model.Default1990(), []int{64, 128, 256})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range curves {
			if c.Name != "RMP" {
				continue
			}
			b.ReportMetric(c.Points[1].Mbps/c.Points[0].Mbps, "rmp_128v64_ratio")
			b.ReportMetric(c.Points[2].Mbps/c.Points[1].Mbps, "rmp_256v128_ratio")
		}
	}
}

// BenchmarkFig8_HostToHostThroughput regenerates Figure 8 at the 8 KB
// point. Paper anchors: VME-limited ~30 Mbit/s; TCP ~24-28, RMP ~28.
func BenchmarkFig8_HostToHostThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, _, err := bench.Fig8(model.Default1990(), []int{8192})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range curves {
			b.ReportMetric(c.Points[0].Mbps, metricName(c.Name, "_8k_mbps"))
		}
	}
}

// BenchmarkNetdevVsEthernet regenerates the §6.3 network-device
// comparison. Paper anchors: 6.4 Mbit/s (Nectar as plain device) vs
// 7.2 Mbit/s (on-board Ethernet).
func BenchmarkNetdevVsEthernet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Netdev(model.Default1990())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.NectarNetdevMbps, "netdev_mbps")
		b.ReportMetric(r.EthernetMbps, "ethernet_mbps")
	}
}

// BenchmarkHubSetup regenerates the §2.1 micro-measurement: 700 ns to set
// up a connection and transfer the first byte through one HUB.
func BenchmarkHubSetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Micro(model.Default1990())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.HubFirstByteNS, "hub_first_byte_ns")
	}
}

// BenchmarkContextSwitch regenerates the §3.1 micro-measurement: a thread
// context switch is "20 µsec ... typical".
func BenchmarkContextSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Micro(model.Default1990())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ContextSwitchUS, "ctxswitch_us")
	}
}

// BenchmarkAblation_InterruptVsThread runs the §3.1 input-processing
// ablation the paper proposes (interrupt-time vs high-priority thread).
func BenchmarkAblation_InterruptVsThread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.AblateIPMode(model.Default1990())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.InterruptRTTUS, "interrupt_rtt_us")
		b.ReportMetric(r.ThreadRTTUS, "thread_rtt_us")
	}
}

// BenchmarkAblation_UpcallVsThread runs the §3.3 reader-upcall ablation.
func BenchmarkAblation_UpcallVsThread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.AblateUpcall(model.Default1990())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ThreadUS, "thread_us_per_op")
		b.ReportMetric(r.UpcallUS, "upcall_us_per_op")
	}
}

// BenchmarkAblation_MailboxImpl runs the §3.3 shared-memory vs RPC
// mailbox-implementation comparison (paper: shared memory ~2x faster).
func BenchmarkAblation_MailboxImpl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.AblateMailboxImpl(model.Default1990())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SharedUS, "shared_us")
		b.ReportMetric(r.RPCUS, "rpc_us")
	}
}

// BenchmarkAblation_CircuitSwitching runs the §2.1 packet-vs-circuit
// switching comparison.
func BenchmarkAblation_CircuitSwitching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.AblateSwitching(model.Default1990())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PacketFirstByteNS, "packet_ns")
		b.ReportMetric(r.CircuitFirstByteNS, "circuit_ns")
	}
}

// BenchmarkAblation_RMPWindow runs this reproduction's windowed-RMP
// extension ablation: what does the paper's stop-and-wait design cost?
// (Finding: almost nothing — per-message CPU dominates the tiny RTT.)
func BenchmarkAblation_RMPWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.AblateRMPWindow(model.Default1990())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.StopAndWaitMbps, "window1_mbps")
		b.ReportMetric(r.Window4Mbps, "window4_mbps")
	}
}

// BenchmarkFatTreeBuild builds a fat-tree cluster with 8 declared
// cross-pod flows and no node materialized, as nectar-perf's fabric
// workload does: at k=16 the 1,024-host FatTree(16) of 320 HUBs and 4,096
// trunk fibers, at k=64 the 65,536-host one. The HUBs and the trunks are
// each one slab registering once, so allocs/op is the same at both sizes.
// k=16/shards=2 builds FatTree(16) on 2 shards without declared flows,
// so every trunk is a gateway; the gateways are one more slab. Run with
// -benchmem: a per-HUB or per-trunk allocation shows as allocations per
// build.
func BenchmarkFatTreeBuild(b *testing.B) {
	for _, k := range []int{16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			flows := crossPodFlows(k, 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nectar.NewCluster(&nectar.Config{Topology: fabric.FatTree(k), Flows: flows})
			}
		})
	}
	b.Run("k=16/shards=2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nectar.NewCluster(&nectar.Config{Topology: fabric.FatTree(16), Shards: 2})
		}
	})
}

// crossPodFlows declares n flows on FatTree(k), flow i from the first host
// of pod i to the second host of pod i+k/2, so every flow crosses the
// core tier. It needs n <= k/2.
func crossPodFlows(k, n int) [][2]int {
	perPod := k * k / 4
	flows := make([][2]int, n)
	for i := range flows {
		flows[i] = [2]int{i * perPod, (i+k/2)*perPod + 1}
	}
	return flows
}
