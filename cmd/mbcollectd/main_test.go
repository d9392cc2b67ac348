package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"mburst/internal/collector"
	"mburst/internal/obs"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
)

// failingSyncFile wraps a real file but lies dead on Sync — the fsync
// failure mode a daemon must turn into a non-zero exit.
type failingSyncFile struct {
	*os.File
	fail *bool
}

func (f *failingSyncFile) Sync() error {
	if *f.fail {
		return errors.New("sync: I/O error")
	}
	return f.File.Sync()
}

func testBatch(i int) *wire.Batch {
	return &wire.Batch{Rack: 1, Epoch: 1, Samples: []wire.Sample{
		{Time: simclock.Epoch.Add(simclock.Micros(int64(i) * 50)), Port: 1, Value: uint64(i) * 100},
	}}
}

// newTestShard builds a durable one-shard collector like the one run()
// assembles.
func newTestShard(t *testing.T, dir string, arch *trace.ArchiveWriter) *collector.Shard {
	t.Helper()
	figs, err := collector.NewLiveFigures(collector.LiveFiguresConfig{
		SpeedOf: func(uint32, uint16) uint64 { return 10_000_000_000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := collector.NewShard(collector.ShardConfig{
		Figures:        figs,
		Stats:          &collector.IngestStats{},
		Archive:        arch,
		CheckpointPath: filepath.Join(dir, "checkpoint.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// newSyncFailShard builds newTestShard over an archive whose files fail
// Sync when *failSync is set.
func newSyncFailShard(t *testing.T, dir string, failSync *bool) (*collector.Shard, *trace.ArchiveWriter) {
	t.Helper()
	arch, err := trace.CreateArchive(dir, trace.ArchiveConfig{
		SyncEvery: 1000, // keep syncs out of WriteBatch; shutdown triggers them
		Open: func(path string) (io.WriteCloser, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			return &failingSyncFile{File: f, fail: failSync}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return newTestShard(t, dir, arch), arch
}

func TestFinalizeDurableCleanShutdown(t *testing.T) {
	noFail := false
	sh, arch := newSyncFailShard(t, filepath.Join(t.TempDir(), "a"), &noFail)
	sh.Handle(testBatch(0))
	if code := finalizeDurable(obs.DaemonLogger("test"), sh, arch); code != 0 {
		t.Fatalf("clean shutdown exited %d, want 0", code)
	}
}

// TestFinalizeDurableSyncErrorExitsNonZero: an archive whose final sync
// fails must drive a non-zero exit — a silently truncated archive is the
// one failure mode a durability daemon may never hide.
func TestFinalizeDurableSyncErrorExitsNonZero(t *testing.T) {
	fail := false
	sh, arch := newSyncFailShard(t, filepath.Join(t.TempDir(), "a"), &fail)
	sh.Handle(testBatch(0))
	fail = true
	if code := finalizeDurable(obs.DaemonLogger("test"), sh, arch); code == 0 {
		t.Fatal("failed final sync exited 0")
	}
}

// TestFinalizeDurableOpenerFailure: a dying disk surfaces at segment
// rotation too — the opener fails, the write latches, and shutdown
// reports it.
func TestFinalizeDurableOpenerFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a")
	opened := 0
	arch, err := trace.CreateArchive(dir, trace.ArchiveConfig{
		SegmentBatches: 1,
		Open: func(path string) (io.WriteCloser, error) {
			opened++
			if opened > 1 {
				return nil, errors.New("open: no space left on device")
			}
			return os.Create(path)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := newTestShard(t, dir, arch)
	sh.Handle(testBatch(0))
	sh.Handle(testBatch(1)) // rotation: the opener fails here
	if sh.Err() == nil && finalizeDurable(obs.DaemonLogger("test"), sh, arch) == 0 {
		t.Fatal("opener failure surfaced neither as a sticky error nor a non-zero exit")
	}
}
