// Package model holds the calibrated cost model for the simulated Nectar
// hardware. Every constant is either stated directly in the paper (cited),
// derived from a stated quantity, or calibrated so that a stated end-to-end
// result is reproduced; each comment says which.
//
// The model is a plain struct so experiments and ablations can perturb
// individual costs (e.g. zeroing the TCP checksum cost for the Figure 7
// "TCP w/o checksum" curve).
package model

import "nectar/internal/sim"

// CostModel gathers every timing constant used by the hardware and runtime
// models. All durations are virtual time.
type CostModel struct {
	// --- Network fabric (paper §2.1) ---

	// FiberBytesPerSec is the fiber-optic line rate. Paper: 100 Mbit/s.
	FiberBytesPerSec int64
	// HubSetup is the HUB latency to set up a connection and deliver the
	// first byte through a single HUB. Paper: 700 ns.
	HubSetup sim.Duration

	// --- VME bus (paper §6.1, §6.3) ---

	// VMEWord is the cost of one programmed-I/O read or write of a 32-bit
	// word across the VME bus. Paper: "each read or write over the VME bus
	// takes about 1 µs".
	VMEWord sim.Duration
	// VMEDMABytesPerSec is the block-transfer bandwidth of the VME bus used
	// by the CAB DMA engine. Paper: "the VME bus ... is about 30 Mbit/sec".
	VMEDMABytesPerSec int64
	// VMEDMASetup is the fixed cost to program one VME DMA transfer.
	// Calibrated (Figure 8 flattening point).
	VMEDMASetup sim.Duration

	// --- CAB CPU & runtime (paper §2.2, §3.1) ---

	// ContextSwitch is a full thread context switch (SPARC register-window
	// save/restore). Paper: "20 µsec is typical".
	ContextSwitch sim.Duration
	// InterruptEntry is the cost to take an interrupt and enter the
	// handler (no full context switch). Derived: a few µs on a 16.5 MHz
	// SPARC; calibrated within the Figure 6 budget.
	InterruptEntry sim.Duration
	// InterruptExit is the cost to return from an interrupt handler.
	InterruptExit sim.Duration

	// --- Memory & DMA (paper §2.2) ---

	// DMASetup is the fixed cost for the CPU to program one fiber<->memory
	// DMA transfer. Calibrated (Figure 7 small-message region).
	DMASetup sim.Duration
	// MemCopyBytesPerSec is the CPU copy bandwidth of the 35 ns SRAM data
	// memory (word loop on a 16.5 MHz SPARC, ~4 B / 4 cycles ≈ 16 MB/s).
	MemCopyBytesPerSec int64

	// --- Runtime primitive costs (calibrated against Figure 6's 163 µs
	// one-way breakdown with its ~40/40/20 split; each is tens of
	// instructions on the CAB CPU) ---

	// MailboxBeginPut / EndPut / BeginGet / EndGet are the CPU costs of the
	// two-phase mailbox operations when executed on the CAB.
	MailboxBeginPut sim.Duration
	MailboxEndPut   sim.Duration
	MailboxBeginGet sim.Duration
	MailboxEndGet   sim.Duration
	// MailboxEnqueue moves a message between mailboxes by pointer surgery
	// (paper §3.3); cheap by design.
	MailboxEnqueue sim.Duration
	// HeapAlloc / HeapFree are buffer allocator costs (first-fit heap).
	HeapAlloc sim.Duration
	HeapFree  sim.Duration
	// SyncOp is the cost of a sync Write/Read/Cancel on the CAB (§3.4).
	SyncOp sim.Duration
	// HostSignal is the CPU cost of posting to a signal queue and raising
	// the cross-bus interrupt (§3.2).
	HostSignal sim.Duration

	// --- Protocol processing costs (per packet, on the CAB CPU) ---

	// DatalinkProcess is datalink-layer header handling per packet.
	// Paper Figure 6 shows "datalink 8" (µs).
	DatalinkProcess sim.Duration
	// IPInput is IP input-path processing excluding the header checksum
	// (sanity checks, dispatch). Derived: ~100 instructions.
	IPInput sim.Duration
	// IPOutput is IP_Output header-fill cost.
	IPOutput sim.Duration
	// IPHeaderChecksum is the software checksum over the 20-byte IP header.
	IPHeaderChecksum sim.Duration
	// TCPInput / TCPOutput are fixed per-segment TCP costs excluding the
	// data checksum.
	TCPInput  sim.Duration
	TCPOutput sim.Duration
	// UDPProcess is fixed per-datagram UDP cost.
	UDPProcess sim.Duration
	// NectarTransport is fixed per-packet cost of the Nectar-specific
	// transport protocols (datagram/RMP/RRP); lean by design.
	NectarTransport sim.Duration
	// ChecksumBytesPerSec is the software Internet-checksum rate on the
	// CAB CPU. Calibrated: the paper attributes the Figure 7 TCP-vs-RMP
	// gap "mostly" to TCP software checksums; ~18 MB/s on a 16.5 MHz SPARC
	// (word loop with adds) reproduces that gap.
	ChecksumBytesPerSec int64

	// --- Host (Sun-4) costs (paper §6.1) ---

	// HostMessageCreate / HostMessageRead: Figure 6 attributes ~20 % of the
	// one-way latency to "the host creating and reading the message"
	// (fixed part; per-byte VME costs are charged separately).
	HostMessageCreate sim.Duration
	HostMessageRead   sim.Duration
	// HostPollIteration is one spin of a host polling loop on a host
	// condition variable (a VME read plus loop overhead).
	HostPollIteration sim.Duration
	// HostSyscall is a host system call (used by the blocking Wait path
	// and by the netdev usage level). ~1990 UNIX: tens of µs.
	HostSyscall sim.Duration
	// HostInterrupt is host-side interrupt dispatch to the CAB driver.
	HostInterrupt sim.Duration
	// HostStackPerPacket is the host-resident BSD network stack's
	// per-packet CPU cost (socket write, mbuf handling, IP+TCP/UDP on the
	// host) used by the §5.1 network-device level and the Ethernet
	// baseline. One constant serves both: the paper's 6.4 vs 7.2 Mbit/s
	// comparison is then explained mechanically by what differs — the
	// VME crossing vs the on-board interface.
	HostStackPerPacket sim.Duration

	// --- Ethernet baseline (paper §6.3) ---

	// EtherBytesPerSec is the Ethernet line rate (10 Mbit/s).
	EtherBytesPerSec int64
	// EtherDriverPerPacket is the on-board Ethernet interface's driver +
	// copy cost per packet (no VME crossing).
	EtherDriverPerPacket sim.Duration
}

// Default1990 returns the cost model calibrated to the paper's prototype
// (16.5 MHz SPARC CAB, Sun-4 hosts, 100 Mbit/s fiber, VME backplane).
func Default1990() *CostModel {
	return &CostModel{
		FiberBytesPerSec: 100_000_000 / 8, // 100 Mbit/s (§2.1)
		HubSetup:         700 * sim.Nanosecond,

		VMEWord:           1 * sim.Microsecond, // §6.1
		VMEDMABytesPerSec: 30_000_000 / 8,      // §6.3
		VMEDMASetup:       8 * sim.Microsecond, // calibrated

		ContextSwitch:  20 * sim.Microsecond, // §3.1
		InterruptEntry: 4 * sim.Microsecond,  // calibrated (Fig 6)
		InterruptExit:  2 * sim.Microsecond,

		DMASetup:           4 * sim.Microsecond,
		MemCopyBytesPerSec: 16_000_000,

		MailboxBeginPut: 6 * sim.Microsecond,
		MailboxEndPut:   6 * sim.Microsecond,
		MailboxBeginGet: 5 * sim.Microsecond,
		MailboxEndGet:   5 * sim.Microsecond,
		MailboxEnqueue:  3 * sim.Microsecond,
		HeapAlloc:       4 * sim.Microsecond,
		HeapFree:        3 * sim.Microsecond,
		SyncOp:          2 * sim.Microsecond,
		HostSignal:      4 * sim.Microsecond,

		DatalinkProcess:  8 * sim.Microsecond, // Figure 6
		IPInput:          7 * sim.Microsecond,
		IPOutput:         6 * sim.Microsecond,
		IPHeaderChecksum: 3 * sim.Microsecond,
		TCPInput:         12 * sim.Microsecond,
		TCPOutput:        12 * sim.Microsecond,
		UDPProcess:       8 * sim.Microsecond,
		NectarTransport:  5 * sim.Microsecond,

		ChecksumBytesPerSec: 18_000_000,

		HostMessageCreate: 14 * sim.Microsecond,
		HostMessageRead:   14 * sim.Microsecond,
		HostPollIteration: 3 * sim.Microsecond,
		HostSyscall:       60 * sim.Microsecond,
		HostInterrupt:     30 * sim.Microsecond,

		HostStackPerPacket:   1400 * sim.Microsecond, // calibrated: E5 anchors (6.4 / 7.2 Mbit/s)
		EtherBytesPerSec:     10_000_000 / 8,
		EtherDriverPerPacket: 260 * sim.Microsecond, // calibrated with HostStackPerPacket
	}
}

// Clone returns a deep copy, for ablations that perturb single costs.
func (c *CostModel) Clone() *CostModel {
	d := *c
	return &d
}

// FiberTime is the serialization time of n bytes on the fiber.
func (c *CostModel) FiberTime(n int) sim.Duration {
	return bytesTime(n, c.FiberBytesPerSec)
}

// VMEDMATime is the block-DMA time for n bytes across the VME bus.
func (c *CostModel) VMEDMATime(n int) sim.Duration {
	return bytesTime(n, c.VMEDMABytesPerSec)
}

// ChecksumTime is the software checksum time over n bytes on the CAB CPU.
func (c *CostModel) ChecksumTime(n int) sim.Duration {
	return bytesTime(n, c.ChecksumBytesPerSec)
}

// MemCopyTime is the CPU copy time for n bytes of CAB data memory.
func (c *CostModel) MemCopyTime(n int) sim.Duration {
	return bytesTime(n, c.MemCopyBytesPerSec)
}

// EtherTime is the serialization time of n bytes on the Ethernet baseline.
func (c *CostModel) EtherTime(n int) sim.Duration {
	return bytesTime(n, c.EtherBytesPerSec)
}

// VMEWords is the PIO cost of transferring n bytes word-by-word.
func (c *CostModel) VMEWords(n int) sim.Duration {
	words := (n + 3) / 4
	return sim.Duration(words) * c.VMEWord
}

func bytesTime(n int, bytesPerSec int64) sim.Duration {
	if n <= 0 || bytesPerSec <= 0 {
		return 0
	}
	return sim.Duration(int64(n) * sim.Second.Nanos() / bytesPerSec)
}
