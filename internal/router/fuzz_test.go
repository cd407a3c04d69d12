package router_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"dod/internal/codec"
	"dod/internal/errs"
	"dod/internal/httpapi"
	"dod/internal/router"
)

// FuzzShardBodies hammers the two wave-body decoders, seeded with every body
// the shard-wire golden's stream sends, each of which must decode and
// re-encode to itself. An input is tried as it is and behind a fresh
// integrity frame (its last ten bytes replaced by a recomputed one, so
// mutations reach the frames behind the seal). DecodeSupportBatch and
// DecodeIngestBatch never panic, fail only with errs.ErrWireFormat-family
// errors, never allocate more than a constant times the input's length
// (their slabs grow by doubling), and whatever they accept re-encodes to a
// canonical body, one that decodes and re-encodes to itself. (An accepted
// body need not be canonical itself: an overlong varint or a reformatted
// JSON header decodes to the same values.)
func FuzzShardBodies(f *testing.F) {
	rec := &wireRecorder{next: httpapi.NewTransport()}
	w := newWireTier(f, rec)
	for _, req := range wireStream(7, 2) {
		w.post(req.path, req.reqID, req.body)
		for _, c := range rec.take(w.names) {
			if got := reencode(c.path, c.body); !bytes.Equal(got, c.body) {
				f.Fatalf("%s %q: the body the router sent does not re-encode to itself", c.path, c.key)
			}
			f.Add(c.body)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		inputs := [][]byte{body}
		if len(body) >= 10 {
			inputs = append(inputs, codec.AppendSumFrame(append([]byte(nil), body[:len(body)-10]...)))
		}
		for _, raw := range inputs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, serr := router.DecodeSupportBatch(raw)
			_, _, ierr := router.DecodeIngestBatch(raw)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(raw)+64<<10); got > limit {
				t.Fatalf("decoding %d bytes allocated %d (> %d)", len(raw), got, limit)
			}
			for path, err := range map[string]error{router.PathSupport: serr, router.PathShardIngestBatch: ierr} {
				switch {
				case err != nil && !errors.Is(err, errs.ErrWireFormat):
					t.Fatalf("%s: non-wire-format error: %v", path, err)
				case err == nil:
					enc := reencode(path, raw)
					if again := reencode(path, enc); !bytes.Equal(again, enc) {
						t.Fatalf("%s: an accepted body re-encodes to %x, which re-encodes to %x", path, enc, again)
					}
				}
			}
		}
	})
}

// reencode decodes body as the wave body of path and encodes it again, or
// returns nil if it does not decode.
func reencode(path string, body []byte) []byte {
	if path == router.PathSupport {
		hdr, probes, err := router.DecodeSupportBatch(body)
		if err != nil {
			return nil
		}
		return router.EncodeSupportBatch(hdr, probes)
	}
	hdr, ops, err := router.DecodeIngestBatch(body)
	if err != nil {
		return nil
	}
	return router.EncodeIngestBatch(hdr, ops)
}
