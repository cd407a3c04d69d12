package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"dod/internal/codec"
	"dod/internal/errs"
	"dod/internal/mapreduce"
	"dod/internal/obs"
)

func sampleTaskHeader(phase string) taskHeader {
	return taskHeader{
		Job: 7, Phase: phase, Task: 3, Dispatch: 42,
		NumReducers: 4, SplitName: "blk-3",
		Spec: JobSpec{Kind: "dod.test/v1", Config: []byte(`{"r":5}`)},
	}
}

func TestMapTaskRoundTrip(t *testing.T) {
	h := sampleTaskHeader("map")
	split := mapreduce.Split{Name: "blk-3", Data: []byte{9, 8, 7, 6}}
	body, err := encodeMapTaskBody(h, split)
	if err != nil {
		t.Fatal(err)
	}
	got, mt, rt, err := decodeTaskBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if rt != nil || mt == nil {
		t.Fatalf("map body decoded as reduce task")
	}
	if !reflect.DeepEqual(got, h) {
		t.Errorf("header round-trip:\n got %+v\nwant %+v", got, h)
	}
	if !reflect.DeepEqual(*mt, mapreduce.MapTask{TaskID: 3, NumReducers: 4, Split: split}) {
		t.Errorf("map task round-trip: %+v", *mt)
	}
}

func TestReduceTaskRoundTrip(t *testing.T) {
	h := sampleTaskHeader("reduce")
	groups := []mapreduce.Group{
		{Key: 0, Values: [][]byte{{1}, {2, 2}, {}}},
		{Key: 1 << 40, Values: [][]byte{{3}}},
		{Key: 9, Values: nil},
	}
	body, err := encodeReduceTaskBody(h, groups)
	if err != nil {
		t.Fatal(err)
	}
	_, mt, rt, err := decodeTaskBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if mt != nil || rt == nil {
		t.Fatalf("reduce body decoded as map task")
	}
	if rt.TaskID != 3 || len(rt.Groups) != 3 {
		t.Fatalf("reduce task round-trip: %+v", *rt)
	}
	for i := range groups {
		if rt.Groups[i].Key != groups[i].Key || len(rt.Groups[i].Values) != len(groups[i].Values) {
			t.Errorf("group %d round-trip: %+v", i, rt.Groups[i])
		}
		for j := range groups[i].Values {
			if !reflect.DeepEqual(rt.Groups[i].Values[j], groups[i].Values[j]) {
				t.Errorf("group %d value %d: %v", i, j, rt.Groups[i].Values[j])
			}
		}
	}
}

func sampleResultHeader(phase string) resultHeader {
	return resultHeader{
		Job: 7, Phase: phase, Task: 3, Dispatch: 42, Worker: "w1",
		Metric: wireMetric{DurationNs: 1e6, RecordsIn: 10, RecordsOut: 2, BytesOut: 99,
			Counters: map[string]int64{"dist.comps": 123}},
	}
}

// bucketsOf copies each list of pairs into a Bucket, a map result's form.
func bucketsOf(lists ...[]mapreduce.Pair) []mapreduce.Bucket {
	buckets := make([]mapreduce.Bucket, len(lists))
	for i, kvs := range lists {
		for _, p := range kvs {
			buckets[i].Append(p.Key, p.Value)
		}
	}
	return buckets
}

func TestMapResultRoundTrip(t *testing.T) {
	h := sampleResultHeader("map")
	res := &mapreduce.MapResult{Buckets: bucketsOf(
		[]mapreduce.Pair{{Key: 1, Value: []byte{0xaa}}, {Key: 2, Value: nil}},
		nil, // empty bucket must survive as a bucket, preserving reducer order
		[]mapreduce.Pair{{Key: 3, Value: []byte{1, 2, 3}}},
	)}
	body, err := encodeMapResultBody(h, res)
	if err != nil {
		t.Fatal(err)
	}
	got, buckets, output, err := decodeResultBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if output != nil {
		t.Error("map result produced reduce output")
	}
	if got.Worker != "w1" || got.Metric.Counters["dist.comps"] != 123 {
		t.Errorf("result header round-trip: %+v", got)
	}
	if len(buckets) != 3 || buckets[0].Len() != 2 || buckets[1].Len() != 0 || buckets[2].Len() != 1 {
		t.Fatalf("bucket shape: %v", buckets)
	}
	if buckets[0].Keys[0] != 1 || string(buckets[0].Value(0)) != "\xaa" || buckets[2].Keys[0] != 3 {
		t.Errorf("bucket contents: %v", buckets)
	}
}

// TestResultBodySizedOnce: a result body is allocated at its final length
// and holds the frames a payload-buffer encoding writes: the header, one
// KV-list frame per bucket (or the output), and the integrity frame.
func TestResultBodySizedOnce(t *testing.T) {
	buckets := [][]mapreduce.Pair{
		{{Key: 1, Value: []byte{0xaa}}, {Key: 1 << 40, Value: nil}},
		{},
		{{Key: 3, Value: make([]byte, 300)}},
	}
	h := sampleResultHeader("map")
	raw, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	want := codec.AppendFrame(nil, frameHeader, raw)
	for _, b := range buckets {
		want = codec.AppendFrame(want, frameBucket, codec.AppendKVs(nil, b))
	}
	want = codec.AppendSumFrame(want)
	got, err := encodeMapResultBody(h, &mapreduce.MapResult{Buckets: bucketsOf(buckets...)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || cap(got) != len(got) {
		t.Fatalf("map result body: %d bytes (cap %d), want the %d bytes of a payload-buffer encoding", len(got), cap(got), len(want))
	}
}

// TestTaskBodySizedOnce: a map or reduce task body is allocated at its
// final length and holds the bytes of the encoding that built each frame's
// payload in a buffer of its own: the header, the split or one group frame
// per key group, and the integrity frame.
func TestTaskBodySizedOnce(t *testing.T) {
	header := func(h taskHeader) []byte {
		raw, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		return codec.AppendFrame(nil, frameHeader, raw)
	}
	split := mapreduce.Split{Name: "blk-3", Data: make([]byte, 300)}
	want := codec.AppendSumFrame(codec.AppendFrame(header(sampleTaskHeader("map")), frameSplit, split.Data))
	got, err := encodeMapTaskBody(sampleTaskHeader("map"), split)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || cap(got) != len(got) {
		t.Fatalf("map task body: %d bytes (cap %d), want the %d bytes of a payload-buffer encoding", len(got), cap(got), len(want))
	}

	groups := []mapreduce.Group{
		{Key: 0, Values: [][]byte{{1}, {2, 2}, {}}},
		{Key: 1 << 40, Values: [][]byte{make([]byte, 200)}},
		{Key: 9, Values: nil},
		{Key: 300, Values: [][]byte{make([]byte, 130), {7}}},
	}
	want = header(sampleTaskHeader("reduce"))
	var scratch []byte
	for _, g := range groups {
		scratch = binary.AppendUvarint(scratch[:0], g.Key)
		scratch = codec.AppendBytesList(scratch, g.Values)
		want = codec.AppendFrame(want, frameGroup, scratch)
	}
	want = codec.AppendSumFrame(want)
	got, err = encodeReduceTaskBody(sampleTaskHeader("reduce"), groups)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || cap(got) != len(got) {
		t.Fatalf("reduce task body: %d bytes (cap %d), want the %d bytes of a payload-buffer encoding", len(got), cap(got), len(want))
	}
}

func TestReduceResultRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		output []mapreduce.Pair
	}{
		{"records", []mapreduce.Pair{{Key: 5, Value: []byte("v")}, {Key: 6, Value: nil}}},
		{"empty", nil}, // a reducer may legitimately emit nothing
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, err := encodeReduceResultBody(sampleResultHeader("reduce"), &mapreduce.ReduceResult{Output: tc.output})
			if err != nil {
				t.Fatal(err)
			}
			_, buckets, output, err := decodeResultBody(body)
			if err != nil {
				t.Fatal(err)
			}
			if buckets != nil {
				t.Error("reduce result produced map buckets")
			}
			if output == nil {
				t.Fatal("empty reduce output decoded as missing frame")
			}
			if len(output) != len(tc.output) {
				t.Fatalf("output round-trip: %v", output)
			}
			for i := range tc.output {
				if output[i].Key != tc.output[i].Key || string(output[i].Value) != string(tc.output[i].Value) {
					t.Errorf("record %d: %+v", i, output[i])
				}
			}
		})
	}
}

func TestErrorResultRoundTrip(t *testing.T) {
	h := sampleResultHeader("map")
	h.Err = "detector exploded"
	body, err := encodeErrorResultBody(h)
	if err != nil {
		t.Fatal(err)
	}
	got, buckets, output, err := decodeResultBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Err != "detector exploded" || buckets != nil || output != nil {
		t.Errorf("error result round-trip: %+v %v %v", got, buckets, output)
	}
}

// TestDecodeCorruptBodies feeds malformed messages to both decoders; every
// one must fail with an errs.ErrWireFormat-family error, never panic.
func TestDecodeCorruptBodies(t *testing.T) {
	mapBody, err := encodeMapTaskBody(sampleTaskHeader("map"), mapreduce.Split{Data: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	badPhase := sampleTaskHeader("shuffle")
	badPhaseBody, err := encodeMapTaskBody(badPhase, mapreduce.Split{})
	if err != nil {
		t.Fatal(err)
	}
	errWithPayload := sampleResultHeader("map")
	errWithPayload.Err = "boom"
	errPayloadBody, err := encodeMapResultBody(errWithPayload, &mapreduce.MapResult{Buckets: make([]mapreduce.Bucket, 1)})
	if err != nil {
		t.Fatal(err)
	}
	swapKind := func(body []byte, kind byte) []byte {
		dup := append([]byte(nil), body...)
		dup[0] = kind
		return dup
	}

	cases := map[string][]byte{
		"empty":                  {},
		"not a frame":            {0xff},
		"first frame not header": swapKind(mapBody, frameSplit),
		"header not json":        {frameHeader, 3, 'x', 'y', 'z'},
		"truncated mid-frame":    mapBody[:len(mapBody)-2],
		"unknown phase":          badPhaseBody,
		"error result payload":   errPayloadBody,
	}
	for name, body := range cases {
		if _, _, _, err := decodeTaskBody(body); !errors.Is(err, errs.ErrWireFormat) {
			t.Errorf("decodeTaskBody(%s) = %v, want ErrWireFormat", name, err)
		}
	}
	for name, body := range cases {
		if name == "unknown phase" || name == "error result payload" {
			continue // task-decoder-specific cases
		}
		if _, _, _, err := decodeResultBody(body); !errors.Is(err, errs.ErrWireFormat) {
			t.Errorf("decodeResultBody(%s) = %v, want ErrWireFormat", name, err)
		}
	}
	if _, _, _, err := decodeResultBody(errPayloadBody); !errors.Is(err, errs.ErrWireFormat) {
		t.Errorf("error result with payload accepted: %v", err)
	}
	// Frame-kind/phase mismatch: a reduce-phase header followed by a map
	// bucket frame.
	mismatch, err := encodeMapResultBody(sampleResultHeader("reduce"), &mapreduce.MapResult{Buckets: make([]mapreduce.Bucket, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := decodeResultBody(mismatch); !errors.Is(err, errs.ErrWireFormat) {
		t.Errorf("bucket frame in reduce result = %v, want ErrWireFormat", err)
	}
	missing, err := sizedBody(sampleResultHeader("reduce"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := decodeResultBody(missing); !errors.Is(err, errs.ErrWireFormat) {
		t.Errorf("reduce result without output frame = %v, want ErrWireFormat", err)
	}
}

func TestMetricAndSpanConversion(t *testing.T) {
	m := mapreduce.TaskMetric{
		Duration: 3 * time.Millisecond, RecordsIn: 7, RecordsOut: 5,
		BytesIn: 100, BytesOut: 50, Counters: map[string]int64{"x": 1},
	}
	back := metricFromWire(metricToWire(m))
	if !reflect.DeepEqual(m, back) {
		t.Errorf("metric round-trip:\n got %+v\nwant %+v", back, m)
	}

	start := time.Unix(1700000000, 12345)
	spans := []obs.Span{{
		Name: "partition.detect", Start: start, Duration: 2 * time.Millisecond,
		Attrs: []obs.Attr{obs.Str("algo", "CellBased"), obs.Int("partition", 4)},
	}}
	got := spansFromWire(spansToWire(spans))
	if len(got) != 1 || got[0].Name != "partition.detect" ||
		!got[0].Start.Equal(start) || got[0].Duration != spans[0].Duration ||
		got[0].Attr("algo") != "CellBased" || got[0].Attr("partition") != "4" {
		t.Errorf("span round-trip: %+v", got)
	}
	if spansToWire(nil) != nil || spansFromWire(nil) != nil {
		t.Error("nil span lists should stay nil on the wire")
	}
}

// TestDecodedReduceTaskCores: the wire carries no core count, so a reduce
// task a worker decodes runs its user code on one core whatever the
// coordinator's Parallelism.
func TestDecodedReduceTaskCores(t *testing.T) {
	body, err := encodeReduceTaskBody(sampleTaskHeader("reduce"), []mapreduce.Group{{Key: 1, Values: [][]byte{{1}}}})
	if err != nil {
		t.Fatal(err)
	}
	_, _, rt, err := decodeTaskBody(body)
	if err != nil {
		t.Fatal(err)
	}
	cores := 0
	reducer := mapreduce.ReducerFunc(func(ctx *mapreduce.TaskContext, key uint64, values [][]byte, emit mapreduce.Emit) error {
		cores = ctx.Cores()
		return nil
	})
	if _, err := mapreduce.NewLocalExecutor(nil, reducer, nil, nil).ExecReduce(context.Background(), *rt); err != nil {
		t.Fatal(err)
	}
	if cores != 1 {
		t.Errorf("decoded reduce task ran on %d cores, want 1", cores)
	}
}
