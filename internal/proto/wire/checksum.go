// Package wire defines the on-the-wire formats used in the Nectar
// reproduction: the datalink frame carried over the fiber (with its
// hardware-computed CRC trailer and source-route prefix), the Nectar
// transport headers (datagram, RMP, request-response), and standard IPv4,
// ICMP, UDP and TCP headers with real Internet checksums.
//
// All multi-byte fields are big-endian (network byte order). Every header
// type provides Marshal/Unmarshal that operate on caller-provided byte
// slices — buffers live in simulated CAB data memory and are never copied
// by the codec.
package wire

import (
	"encoding/binary"
	"math/bits"
)

// Checksum computes the Internet ones'-complement checksum over data,
// per RFC 1071. A trailing odd byte is padded with zero.
//
//nectar:hotpath
func Checksum(data []byte) uint16 {
	return FinishChecksum(SumWords(0, data))
}

// SumWords adds the 16-bit big-endian words of data into an ones'-
// complement partial sum. Use FinishChecksum to fold and invert. The
// partial form allows checksumming across discontiguous spans (e.g. the
// TCP pseudo-header followed by the segment).
//
// The fast path adds whole 64-bit big-endian words into the accumulator
// — 8 bytes per add, 32 bytes per unrolled iteration — counting the
// carries out of the top. That is sound because the ones'-complement
// checksum is arithmetic mod 2^16-1, and 2^64 = (2^16)^4 = 1 mod 2^16-1:
// a 64-bit word w0w1w2w3 folds to w0+w1+w2+w3, and every wrap of the
// accumulator folds back in as +1. A two-byte loop handles the sub-word
// tail and the odd-byte zero pad, and the final double fold to 32 bits
// is likewise congruent (2^32 = 1 mod 2^16-1). The returned partial may
// therefore differ from the scalar reference's as an integer, but is
// always congruent mod 2^16-1 and zero exactly when the reference's is,
// so FinishChecksum of the two is identical — the checksum_test.go
// property test and FuzzSumWords prove that on every length, alignment,
// starting sum, and span split. This is the paper's headline software
// cost: per-byte checksumming is what separates the TCP and RMP curves
// of Figures 7 and 8 (§6.2), so the simulator's own copy of it should
// not be the slow part of the wall clock.
//
//nectar:hotpath
func SumWords(sum uint32, data []byte) uint32 {
	acc := uint64(sum)
	var carry uint64
	for len(data) >= 32 {
		var c uint64
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data), 0)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data[8:16]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data[16:24]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data[24:32]), c)
		carry += c
		data = data[32:]
	}
	for len(data) >= 8 {
		var c uint64
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data), 0)
		carry += c
		data = data[8:]
	}
	// Fold to 33 bits and absorb the wraps (each is 1 mod 2^16-1); the
	// sub-word tail can no longer overflow 64 bits after this.
	acc = acc>>32 + acc&0xffffffff + carry
	n := len(data)
	i := 0
	for ; i+1 < n; i += 2 {
		acc += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if n%2 == 1 {
		acc += uint64(data[n-1]) << 8
	}
	acc = acc>>32 + acc&0xffffffff
	acc = acc>>32 + acc&0xffffffff
	return uint32(acc)
}

// FinishChecksum folds the carries of a partial sum and returns the
// ones'-complement result.
//
//nectar:hotpath
func FinishChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// VerifyChecksum reports whether data (which includes its checksum field)
// sums to the all-ones pattern, i.e. the checksum is valid.
//
//nectar:hotpath
func VerifyChecksum(data []byte) bool {
	return FinishChecksum(SumWords(0, data)) == 0
}

// PseudoHeaderSum computes the partial sum of the TCP/UDP pseudo-header:
// source address, destination address, zero+protocol, and length.
//
//nectar:hotpath
func PseudoHeaderSum(src, dst uint32, proto uint8, length int) uint32 {
	var b [12]byte
	binary.BigEndian.PutUint32(b[0:], src)
	binary.BigEndian.PutUint32(b[4:], dst)
	b[8] = 0
	b[9] = proto
	binary.BigEndian.PutUint16(b[10:], uint16(length))
	return SumWords(0, b[:])
}
