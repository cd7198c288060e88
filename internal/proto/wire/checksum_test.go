package wire

import (
	"math/rand"
	"testing"
)

// sumWordsRef is the scalar two-bytes-per-iteration reference
// implementation of SumWords, the equivalence property test's oracle and
// the micro-benchmark baseline. Like SumWords it accumulates in 64 bits
// so carries are never dropped, making the two exactly interchangeable on
// any input (the historical uint32 accumulator silently lost a carry —
// one ulp mod 2^16-1 — once the running sum wrapped 2^32).
func sumWordsRef(sum uint32, data []byte) uint32 {
	acc := uint64(sum)
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		acc += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if n%2 == 1 {
		acc += uint64(data[n-1]) << 8
	}
	acc = acc>>32 + acc&0xffffffff
	acc = acc>>32 + acc&0xffffffff
	return uint32(acc)
}

// TestSumWordsMatchesRef proves the word-at-a-time SumWords is equivalent
// to the scalar reference for every length 0..192, every alignment offset
// 0..7 within a shared backing array, and several nonzero starting sums.
// Equivalence is asserted on the folded FinishChecksum result: the two
// implementations may carry differently in their partial accumulators,
// but the folded ones'-complement value must agree exactly.
func TestSumWordsMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1990))
	back := make([]byte, 256)
	for i := range back {
		back[i] = byte(rng.Intn(256))
	}
	starts := []uint32{0, 1, 0xffff, 0x12345678, 0xfffffffe}
	for n := 0; n <= 192; n++ {
		for off := 0; off < 8; off++ {
			data := back[off : off+n]
			for _, s := range starts {
				got := FinishChecksum(SumWords(s, data))
				want := FinishChecksum(sumWordsRef(s, data))
				if got != want {
					t.Fatalf("SumWords(len=%d off=%d start=%#x) = %#04x, ref = %#04x",
						n, off, s, got, want)
				}
			}
		}
	}
}

// TestSumWordsSplitSpans checks that chaining SumWords across an arbitrary
// split (the pseudo-header-then-segment pattern) matches both the one-shot
// fast sum and the one-shot reference.
func TestSumWordsSplitSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 131)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	want := FinishChecksum(sumWordsRef(0, data))
	for split := 0; split <= len(data); split++ {
		// Odd-length first spans shift the word phase of the second span;
		// only even splits are valid checksum span boundaries, which is
		// how the protocol code uses it (pseudo-header is 12 bytes).
		if split%2 == 1 {
			continue
		}
		got := FinishChecksum(SumWords(SumWords(0, data[:split]), data[split:]))
		if got != want {
			t.Fatalf("split at %d: chained sum %#04x, one-shot ref %#04x", split, got, want)
		}
	}
}

// FuzzSumWords fuzzes the fast implementation against the scalar
// reference on arbitrary byte strings and starting sums.
func FuzzSumWords(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(0), []byte{0x01})
	f.Add(uint32(0xffff), []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7, 0x00})
	f.Add(uint32(0x12345678), make([]byte, 64))
	f.Fuzz(func(t *testing.T, start uint32, data []byte) {
		got := FinishChecksum(SumWords(start, data))
		want := FinishChecksum(sumWordsRef(start, data))
		if got != want {
			t.Fatalf("SumWords(start=%#x, len=%d) = %#04x, ref = %#04x",
				start, len(data), got, want)
		}
	})
}

// benchSink keeps the benchmarked sums observable.
var benchSink uint32

func benchSumWords(b *testing.B, n int, fn func(uint32, []byte) uint32) {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 7)
	}
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = fn(0, data)
	}
}

// BenchmarkSumWords measures the word-at-a-time checksum at the paper's
// message sizes; compare against BenchmarkSumWordsRef (the acceptance bar
// is >= 2x bytes/sec on the kilobyte sizes).
func BenchmarkSumWords(b *testing.B) {
	for _, n := range []int{64, 1024, 8192} {
		b.Run(itoa(n), func(b *testing.B) { benchSumWords(b, n, SumWords) })
	}
}

func BenchmarkSumWordsRef(b *testing.B) {
	for _, n := range []int{64, 1024, 8192} {
		b.Run(itoa(n), func(b *testing.B) { benchSumWords(b, n, sumWordsRef) })
	}
}

// itoa avoids importing strconv just for benchmark names.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
