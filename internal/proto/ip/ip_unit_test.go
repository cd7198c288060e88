package ip

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestGatherRangeBasic(t *testing.T) {
	payload := [][]byte{[]byte("abc"), []byte("defgh"), []byte("ij")}
	cases := []struct {
		off, n int
		want   string
	}{
		{0, 10, "abcdefghij"},
		{0, 3, "abc"},
		{1, 3, "bcd"},
		{3, 5, "defgh"},
		{4, 4, "efgh"},
		{7, 3, "hij"},
		{9, 1, "j"},
		{0, 0, ""},
	}
	for _, c := range cases {
		got := flatten(gather(payload, c.off, c.n))
		if string(got) != c.want {
			t.Errorf("gatherRange(off=%d,n=%d) = %q, want %q", c.off, c.n, got, c.want)
		}
	}
}

// gather is gatherRange into a fresh array from its first slot.
func gather(payload [][]byte, off, n int) [][]byte {
	out, k := gatherRange([gatherSpans][]byte{}, 0, payload, off, n)
	return out[:k]
}

func flatten(spans [][]byte) []byte {
	var out []byte
	for _, s := range spans {
		out = append(out, s...)
	}
	return out
}

// Property: gathering [off, off+n) of arbitrary spans equals slicing the
// concatenation.
func TestGatherRangeProperty(t *testing.T) {
	f := func(a, b, c []byte, offRaw, nRaw uint16) bool {
		payload := [][]byte{a, b, c}
		whole := flatten(payload)
		if len(whole) == 0 {
			return true
		}
		off := int(offRaw) % len(whole)
		n := int(nRaw) % (len(whole) - off + 1)
		got := flatten(gather(payload, off, n))
		return bytes.Equal(got, whole[off:off+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: gather never copies — every output span aliases an input span.
func TestGatherRangeAliases(t *testing.T) {
	a := []byte("0123456789")
	spans := gather([][]byte{a}, 2, 5)
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	spans[0][0] = 'X'
	if a[2] != 'X' {
		t.Error("gatherRange copied instead of aliasing")
	}
}

func TestSetMTUValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("tiny MTU accepted")
		}
	}()
	var l Layer
	l.SetMTU(10)
}
