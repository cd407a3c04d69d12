package codec

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"dod/internal/errs"
)

// TestSumFrameRoundTrip seals and re-opens a multi-frame body.
func TestSumFrameRoundTrip(t *testing.T) {
	body := AppendFrame(nil, 1, []byte(`{"h":1}`))
	body = AppendFrame(body, 2, []byte{9, 8, 7})
	body = AppendFrame(body, 2, nil) // empty payload frame must survive
	sealed := AppendSumFrame(body)

	got, err := StripSumFrame(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(body) {
		t.Fatalf("stripped body differs: %x vs %x", got, body)
	}
}

// TestSumFrameDetectsEveryBitFlip flips every bit of a sealed body, on a
// 20-byte and a 4 KB body; every single flip must be rejected — this is the
// guarantee that lets the chaos harness corrupt transport bytes without
// ever producing a silently wrong result.
func TestSumFrameDetectsEveryBitFlip(t *testing.T) {
	small := AppendSumFrame(AppendFrame(AppendFrame(nil, 1, []byte("header")), 4, []byte{1, 2, 3, 4}))
	large := AppendSumFrame(AppendFrame(AppendFrame(nil, 1, []byte("header")), 4, seededBytes(4096, 1)))
	for _, body := range [][]byte{small, large} {
		for i := range body {
			for bit := 0; bit < 8; bit++ {
				body[i] ^= 1 << bit
				_, err := StripSumFrame(body)
				body[i] ^= 1 << bit
				if err == nil {
					t.Fatalf("%d-byte body: flip byte %d bit %d went undetected", len(body), i, bit)
				} else if !errors.Is(err, errs.ErrWireFormat) {
					t.Fatalf("%d-byte body: flip byte %d bit %d: non-wire error %v", len(body), i, bit, err)
				}
			}
		}
	}
}

// TestSumFrameDetectsBursts flips every burst of 2 to 32 bits — first and
// last bit set, the bits between seeded — at 64 seeded bit offsets of a
// 64 KB sealed body. Each CRC of the sum detects every such burst.
func TestSumFrameDetectsBursts(t *testing.T) {
	body := AppendSumFrame(AppendFrame(nil, 2, seededBytes(64<<10, 2)))
	rng := rand.New(rand.NewSource(3))
	for range 64 {
		for n := 2; n <= 32; n++ {
			start := rng.Intn(8*len(body) - n + 1)
			pattern := uint64(1) | uint64(1)<<(n-1) | rng.Uint64()&(uint64(1)<<(n-1)-1)
			flip := func() {
				for b := 0; b < n; b++ {
					if pattern>>b&1 != 0 {
						pos := start + b
						body[pos/8] ^= 1 << (pos % 8)
					}
				}
			}
			flip()
			_, err := StripSumFrame(body)
			flip()
			if !errors.Is(err, errs.ErrWireFormat) {
				t.Fatalf("%d-bit burst %#x at bit %d: err = %v, want ErrWireFormat", n, pattern, start, err)
			}
		}
	}
	if _, err := StripSumFrame(body); err != nil {
		t.Fatalf("restored body rejected: %v", err)
	}
}

// TestOldSealRejected: a body sealed with the FNV-64a sum the frame layer
// used before CRC-32/CRC-32C fails StripSumFrame with ErrWireFormat, so a
// peer from before the change fails loudly, never silently.
func TestOldSealRejected(t *testing.T) {
	data := AppendFrame(AppendFrame(nil, 1, []byte(`{"job":1}`)), 2, seededBytes(1000, 4))
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	old := AppendFrame(append([]byte(nil), data...), FrameSum, binary.LittleEndian.AppendUint64(nil, h))
	if _, err := StripSumFrame(old); !errors.Is(err, errs.ErrWireFormat) {
		t.Fatalf("FNV-64a-sealed body: err = %v, want ErrWireFormat", err)
	}
}

// seededBytes is n bytes from a seeded source.
func seededBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestSumFrameRejections(t *testing.T) {
	sealed := AppendSumFrame(AppendFrame(nil, 1, []byte("x")))
	cases := map[string][]byte{
		"empty":             {},
		"no sum frame":      AppendFrame(nil, 1, []byte("x")),
		"trailing bytes":    append(append([]byte(nil), sealed...), 0),
		"short sum payload": AppendFrame(AppendFrame(nil, 1, []byte("x")), FrameSum, []byte{1, 2, 3}),
		"truncated":         sealed[:len(sealed)-1],
		"sum over wrong data": AppendFrame(AppendFrame(nil, 2, []byte("y")),
			FrameSum, AppendSumFrame(nil)[2:]), // sum of the empty body
	}
	for name, body := range cases {
		if _, err := StripSumFrame(body); !errors.Is(err, errs.ErrWireFormat) {
			t.Errorf("%s: err = %v, want ErrWireFormat", name, err)
		}
	}
}

func TestChecksumStability(t *testing.T) {
	// Known answers on the standard check string: CRC-32 (IEEE) 0xCBF43926
	// in the high word, CRC-32C (Castagnoli) 0xE3069283 in the low word.
	if got := Checksum([]byte("123456789")); got != 0xCBF43926_E3069283 {
		t.Errorf("Checksum(123456789) = %#x", got)
	}
	if got := Checksum(nil); got != 0 {
		t.Errorf("Checksum(nil) = %#x", got)
	}
}
