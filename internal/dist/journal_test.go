// Checkpoint/resume tests: a coordinator pointed at a journal fsyncs every
// settled task result before delivering it, and a NEW coordinator process
// pointed at the same journal answers those tasks from disk. The journal is
// keyed by job-spec content, not by in-memory job IDs, so replay survives a
// full process restart.
package dist_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dod/internal/codec"
	"dod/internal/core"
	"dod/internal/dist"
)

// journaledRun executes the full detection pipeline on a fresh coordinator
// backed by the given journal path, with nWorkers in-process workers, and
// returns the report plus the coordinator's final stats.
func journaledRun(t *testing.T, input *core.Input, path string, nWorkers int) (*core.Report, dist.Stats) {
	t.Helper()
	coord := newCoordinator(t, dist.Config{JournalPath: path})
	for i := 0; i < nWorkers; i++ {
		startWorker(t, coord, fmt.Sprintf("jw%d", i), 2, nil)
	}
	if nWorkers > 0 {
		if err := coord.WaitForWorkers(context.Background(), nWorkers); err != nil {
			t.Fatal(err)
		}
	}
	cfg := coreConfig()
	cfg.ExecutorFor = core.ClusterExecutorFor(coord)
	rep, err := core.Run(context.Background(), input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := coord.Stats()
	coord.Close() // the "kill": release the journal before the next incarnation
	return rep, st
}

// TestJournalResume is the headline checkpoint guarantee: after a completed
// (or killed-and-complete-enough) run, a brand-new coordinator process with
// the same journal and ZERO workers reproduces the run byte-identically —
// every task is settled from disk, none is dispatched.
func TestJournalResume(t *testing.T) {
	input := testInput(t, 2000)
	local := runDetection(t, input, coreConfig())
	jp := filepath.Join(t.TempDir(), "checkpoint.log")

	first, firstStats := journaledRun(t, input, jp, 2)
	if !reflect.DeepEqual(local.Outliers, first.Outliers) {
		t.Fatal("journaled cluster run diverged from local engine")
	}
	if firstStats.JournalReplays != 0 {
		t.Fatalf("fresh journal replayed %d tasks", firstStats.JournalReplays)
	}

	resumed, resumedStats := journaledRun(t, input, jp, 0)
	if !reflect.DeepEqual(local.Outliers, resumed.Outliers) {
		t.Fatal("resumed run diverged from local engine")
	}
	if resumedStats.Dispatches != 0 {
		t.Errorf("resumed run dispatched %d tasks; want 0 (no workers exist)", resumedStats.Dispatches)
	}
	if resumedStats.JournalReplays != firstStats.TasksOK {
		t.Errorf("resumed run replayed %d tasks, want all %d settled by the first run",
			resumedStats.JournalReplays, firstStats.TasksOK)
	}
}

// TestJournalTornTailResume kills the coordinator "mid-append": the journal
// loses the tail of its final record (a crash during write). The next
// incarnation must truncate the torn record, replay every intact one, and
// re-run only the lost task on a live worker — still byte-identical.
func TestJournalTornTailResume(t *testing.T) {
	input := testInput(t, 2000)
	local := runDetection(t, input, coreConfig())
	jp := filepath.Join(t.TempDir(), "checkpoint.log")

	_, firstStats := journaledRun(t, input, jp, 2)
	fi, err := os.Stat(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jp, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	resumed, resumedStats := journaledRun(t, input, jp, 1)
	if !reflect.DeepEqual(local.Outliers, resumed.Outliers) {
		t.Fatal("torn-tail resume diverged from local engine")
	}
	if want := firstStats.TasksOK - 1; resumedStats.JournalReplays != want {
		t.Errorf("replayed %d tasks after torn tail, want %d", resumedStats.JournalReplays, want)
	}
	if resumedStats.Dispatches == 0 {
		t.Error("torn-tail resume dispatched nothing; the truncated task was not re-run")
	}
}

// TestJournalGarbageTailIgnored appends trailing garbage (torn write of a
// record that never completed) and verifies the next incarnation both
// replays cleanly and appends after the truncation point without error.
func TestJournalGarbageTailIgnored(t *testing.T) {
	input := testInput(t, 2000)
	jp := filepath.Join(t.TempDir(), "checkpoint.log")

	_, firstStats := journaledRun(t, input, jp, 2)
	f, err := os.OpenFile(jp, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x7f, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resumed, resumedStats := journaledRun(t, input, jp, 0)
	if len(resumed.Outliers) == 0 {
		t.Fatal("garbage-tail resume found no outliers")
	}
	if resumedStats.JournalReplays != firstStats.TasksOK {
		t.Errorf("replayed %d tasks, want %d", resumedStats.JournalReplays, firstStats.TasksOK)
	}
}

// TestJournalReplayDoesNotMutate is a regression guard: opening an
// existing non-empty journal and settling a whole run from it must not
// rewrite, re-order, or re-append records — byte-compare the file before
// and after a replay-only run.
func TestJournalReplayDoesNotMutate(t *testing.T) {
	input := testInput(t, 2000)
	jp := filepath.Join(t.TempDir(), "checkpoint.log")
	journaledRun(t, input, jp, 2)
	before, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	journaledRun(t, input, jp, 0)
	// Allow the replay run a moment to have closed the file cleanly.
	time.Sleep(10 * time.Millisecond)
	after, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("replay-only run mutated the journal: %d -> %d bytes", len(before), len(after))
	}
}

// TestJournalOldSealDropped: a journal written before the frame seal
// became CRC-32/CRC-32C holds records sealed with FNV-64a. The next
// incarnation must treat them as a torn tail — recover 0 records, log the
// bytes it dropped, truncate them — and re-run every task, still
// byte-identical to the local engine.
func TestJournalOldSealDropped(t *testing.T) {
	input := testInput(t, 2000)
	local := runDetection(t, input, coreConfig())
	jp := filepath.Join(t.TempDir(), "checkpoint.log")

	_, firstStats := journaledRun(t, input, jp, 2)
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	var records int64
	for off := 0; off < len(data); records++ {
		_, _, n, err := codec.DecodeFrame(data[off:])
		if err != nil {
			t.Fatal(err)
		}
		kind, sum, m, err := codec.DecodeFrame(data[off+n:])
		if err != nil || kind != codec.FrameSum || len(sum) != 8 {
			t.Fatalf("record %d: no sum frame (%v)", records, err)
		}
		binary.LittleEndian.PutUint64(sum, fnv64a(data[off:off+n]))
		off += n + m
	}
	if records != firstStats.TasksOK {
		t.Fatalf("journal holds %d records, want %d", records, firstStats.TasksOK)
	}
	if err := os.WriteFile(jp, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var dropped atomic.Bool
	want := fmt.Sprintf("dropped %d bytes after 0 intact bytes", len(data))
	coord := newCoordinator(t, dist.Config{JournalPath: jp, Logf: func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), want) {
			dropped.Store(true)
		}
		t.Logf(format, args...)
	}})
	startWorker(t, coord, "jw0", 2, nil)
	if err := coord.WaitForWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	cfg := coreConfig()
	cfg.ExecutorFor = core.ClusterExecutorFor(coord)
	resumed := runDetection(t, input, cfg)
	st := coord.Stats()
	if !reflect.DeepEqual(local.Outliers, resumed.Outliers) {
		t.Fatal("run on an FNV-sealed journal diverged from local engine")
	}
	if st.JournalReplays != 0 {
		t.Errorf("replayed %d FNV-sealed records, want 0", st.JournalReplays)
	}
	if st.TasksOK != firstStats.TasksOK {
		t.Errorf("re-ran %d tasks, want all %d", st.TasksOK, firstStats.TasksOK)
	}
	if !dropped.Load() {
		t.Errorf("no log line %q", want)
	}
}

// fnv64a is the FNV-64a sum the frame layer sealed with before
// CRC-32/CRC-32C, kept here as the reference for an old journal.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
