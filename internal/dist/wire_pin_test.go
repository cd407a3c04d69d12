package dist

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"dod/internal/mapreduce"
)

// TestResultBodyPinned pins the bytes a worker sends back for a seeded map
// result and a seeded reduce result: the SHA-256 of encodeMapResultBody and
// encodeReduceResultBody over what the in-process executor produces. A
// change to how results are held in memory must leave the wire alone.
func TestResultBodyPinned(t *testing.T) {
	const (
		wantMap    = "24b91646e2a4d3d5497435a3a5707333fd54db4cd42066494ea045dd6f7a373a"
		wantReduce = "e286588fe408e0f2d6e700119e9724678a7f0a351e9e27f90dbd169c8566365d"
	)
	mres, rres := pinnedResults(t)
	body, err := encodeMapResultBody(sampleResultHeader("map"), mres)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != wantMap {
		t.Errorf("map result body SHA-256 %x, want %s", sum, wantMap)
	}

	body, err = encodeReduceResultBody(sampleResultHeader("reduce"), rres)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != wantReduce {
		t.Errorf("reduce result body SHA-256 %x, want %s", sum, wantReduce)
	}
}

// pinnedResults is a seeded map result and reduce result, as the in-process
// executor produces them.
func pinnedResults(t *testing.T) (*mapreduce.MapResult, *mapreduce.ReduceResult) {
	t.Helper()
	rng := rand.New(rand.NewSource(52))
	var emits []mapreduce.Pair
	for i := 0; i < 300; i++ {
		v := make([]byte, rng.Intn(12))
		rng.Read(v)
		emits = append(emits, mapreduce.Pair{Key: uint64(rng.Intn(50)) << uint(rng.Intn(40)), Value: v})
	}
	mapper := mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, split mapreduce.Split, emit mapreduce.Emit) error {
		for _, p := range emits {
			emit(p.Key, p.Value)
		}
		return nil
	})
	reducer := mapreduce.ReducerFunc(func(ctx *mapreduce.TaskContext, key uint64, values [][]byte, emit mapreduce.Emit) error {
		for i, v := range values {
			if i%3 != 1 {
				emit(key+uint64(i), append([]byte{byte(len(values))}, v...))
			}
		}
		return nil
	})
	exec := mapreduce.NewLocalExecutor(mapper, reducer, nil, nil)

	mres, err := exec.ExecMap(context.Background(), mapreduce.MapTask{TaskID: 3, Split: mapreduce.Split{Name: "s3"}, NumReducers: 5})
	if err != nil {
		t.Fatal(err)
	}

	var groups []mapreduce.Group
	for k := uint64(0); k < 40; k++ {
		g := mapreduce.Group{Key: k * 977}
		for j := rng.Intn(6); j > 0; j-- {
			v := make([]byte, rng.Intn(9))
			rng.Read(v)
			g.Values = append(g.Values, v)
		}
		groups = append(groups, g)
	}
	rres, err := exec.ExecReduce(context.Background(), mapreduce.ReduceTask{TaskID: 1, Groups: groups})
	if err != nil {
		t.Fatal(err)
	}
	return mres, rres
}
