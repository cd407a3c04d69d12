package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"dod/internal/codec"
	"dod/internal/geom"
	"dod/internal/mapreduce"
	"dod/internal/replica"
	"dod/internal/router"
	"dod/internal/stream"
)

// TestSealedPayloadsPinned pins every sealed body kind without its
// integrity frame: the SHA-256 of codec.StripSumFrame(body) for a seeded
// map task, reduce task, map result and reduce result, a router support
// body and ingest-batch body, and a replica op shipment. A change to the
// seal may move the 8 sum bytes of each body and nothing else.
func TestSealedPayloadsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	randPoint := func(id uint64) geom.Point {
		return geom.Point{ID: id, Coords: []float64{rng.NormFloat64() * 100, rng.NormFloat64() * 100}}
	}
	randCells := func() [][]int64 {
		cells := make([][]int64, rng.Intn(9))
		for i := range cells {
			cells[i] = []int64{rng.Int63n(2000) - 1000, rng.Int63n(2000) - 1000}
		}
		return cells
	}
	randOp := func(i int) stream.ShardOp {
		switch i % 3 {
		case 0:
			return stream.ShardOp{Kind: stream.OpAdmit, Point: randPoint(uint64(1000 + i)), Seq: uint64(i), Foreign: rng.Intn(5)}
		case 1:
			return stream.ShardOp{Kind: stream.OpEvict, ID: uint64(rng.Intn(1000))}
		default:
			return stream.ShardOp{Kind: stream.OpSupport, Point: randPoint(uint64(2000 + i)), Cells: randCells(), Delta: 1 - 2*rng.Intn(2)}
		}
	}

	mapTask, err := encodeMapTaskBody(sampleTaskHeader("map"), mapreduce.Split{Name: "blk-3", Data: randBytes(3000)})
	if err != nil {
		t.Fatal(err)
	}
	var groups []mapreduce.Group
	for k := uint64(0); k < 60; k++ {
		g := mapreduce.Group{Key: k * 7919}
		for j := rng.Intn(7); j > 0; j-- {
			g.Values = append(g.Values, randBytes(rng.Intn(40)))
		}
		groups = append(groups, g)
	}
	reduceTask, err := encodeReduceTaskBody(sampleTaskHeader("reduce"), groups)
	if err != nil {
		t.Fatal(err)
	}
	mres, rres := pinnedResults(t)
	mapResult, err := encodeMapResultBody(sampleResultHeader("map"), mres)
	if err != nil {
		t.Fatal(err)
	}
	reduceResult, err := encodeReduceResultBody(sampleResultHeader("reduce"), rres)
	if err != nil {
		t.Fatal(err)
	}

	var probes []router.SupportProbe
	for i := 0; i < 20; i++ {
		probes = append(probes, router.SupportProbe{Point: randPoint(uint64(i)), Cells: randCells()})
	}
	support := router.EncodeSupportBatch(router.SupportHeader{Limit: 4, Victims: []uint64{3, 17, 40}}, probes)
	var ops []stream.ShardOp
	for i := 0; i < 30; i++ {
		ops = append(ops, randOp(i))
	}
	ingest := router.EncodeIngestBatch(router.IngestBatchHeader{ArrivedNs: 1_700_000_000_000, Count: len(ops)}, ops)
	log := replica.NewLog(nil)
	for i := range ops {
		log.Append(&replica.Op{Kind: replica.KindWindow, ShardOp: ops[i], ArrivedNs: int64(i) * 1000})
	}
	shipped, head, _ := log.Window(1, 0)
	apply := replica.EncodeApply(replica.ApplyHeader{From: "s1", Count: len(shipped), Head: head}, shipped)

	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"map task", mapTask, "5eb6f9083fb0a55231df7f126b02ebcf576602db44b3192e7dafdd454e3a305a"},
		{"reduce task", reduceTask, "0f678cec56cc76cc7d5472fa6558f0e915743c5e4c184b8744d7e3f2d9904e94"},
		{"map result", mapResult, "fd1f77c721435e78c579e0490790b867e81e268752c23b0bdecdc664832e03aa"},
		{"reduce result", reduceResult, "92cc072369a8d410f0605e3d7cd9a84210ed85cc0b1cac1611ec6844c4a429b3"},
		{"support", support, "50f1f0a2800bbd66fff0da245405c6bffaee1bbeb92c0340e57d343d891c1155"},
		{"ingest batch", ingest, "0ae6101551dba2d667ca75735f5a33d27ca3dd674b63ddcdb65f66b879058619"},
		{"replica apply", apply, "8d8584e85628b3c99a6086310a39e96eec11f1413526a7fd1313f83985240828"},
	} {
		data, err := codec.StripSumFrame(tc.body)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(tc.body)-len(data) != codec.FrameLen(8) {
			t.Errorf("%s: sum frame is %d bytes, want %d", tc.name, len(tc.body)-len(data), codec.FrameLen(8))
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != tc.want {
			t.Errorf("%s: payload SHA-256 %x, want %s", tc.name, sum, tc.want)
		}
	}
}
