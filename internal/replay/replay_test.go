package replay

import (
	"bytes"
	"context"
	"io"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/obs"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
)

func writeCampaign(t *testing.T, windows int, samplesPer int) string {
	t.Helper()
	return writeRackCampaign(t, windows, windows, samplesPer)
}

// writeRackCampaign records windows spread round-robin over racks, each
// window's virtual clock restarting as a simulated window's does.
func writeRackCampaign(t *testing.T, windows, racks, samplesPer int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "c")
	w, err := trace.Create(dir, trace.Meta{
		App: "web", NumServers: 8, NumUplinks: 4,
		ServerSpeed: 10e9, UplinkSpeed: 40e9,
		Interval: 25 * simclock.Microsecond, WindowDur: simclock.Millis(10),
		Windows: windows, Seed: 1,
		Counters: []collector.CounterSpec{{Port: 0, Dir: asic.TX, Kind: asic.KindBytes}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for win := 0; win < windows; win++ {
		samples := make([]wire.Sample, samplesPer)
		for i := range samples {
			samples[i] = wire.Sample{
				Time:  simclock.Epoch.Add(simclock.Micros(int64(i+1) * 25)),
				Port:  0,
				Dir:   asic.TX,
				Kind:  asic.KindBytes,
				Value: uint64(win*samplesPer+i) * 1000,
			}
		}
		if err := w.WriteWindow(win, uint32(win%racks), samples); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestReplayUnpacedDeliversEverything(t *testing.T) {
	dir := writeCampaign(t, 3, 5000)
	var buf bytes.Buffer
	st, err := Run(context.Background(), dir, &buf, Options{Unpaced: true, BatchSamples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if st.Windows != 3 || st.Samples != 15000 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Batches != 15 {
		t.Errorf("batches = %d, want 15", st.Batches)
	}
	// The byte stream decodes back to the same sample count.
	r := wire.NewReader(&buf)
	total := 0
	for {
		b, err := r.ReadBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += len(b.Samples)
	}
	if total != 15000 {
		t.Errorf("decoded %d samples", total)
	}
	// Each window spans (5000-1)×25µs.
	want := 3 * simclock.Duration(4999) * 25 * simclock.Microsecond
	if st.VirtualSpan != want {
		t.Errorf("virtual span = %v, want %v", st.VirtualSpan, want)
	}
}

func TestReplayFormatTranscodes(t *testing.T) {
	dir := writeCampaign(t, 2, 3000)
	decode := func(stream []byte) []wire.Sample {
		t.Helper()
		r := wire.NewReader(bytes.NewReader(stream))
		var out []wire.Sample
		for {
			b, err := r.ReadBatch()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b.Samples...)
		}
	}
	var v2, v3 bytes.Buffer
	if _, err := Run(context.Background(), dir, &v2, Options{Unpaced: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), dir, &v3, Options{Unpaced: true, Format: wire.FormatMBW3}); err != nil {
		t.Fatal(err)
	}
	s2, s3 := decode(v2.Bytes()), decode(v3.Bytes())
	if len(s2) != 6000 || len(s3) != 6000 {
		t.Fatalf("decoded %d/%d samples, want 6000 each", len(s2), len(s3))
	}
	for i := range s2 {
		if s2[i] != s3[i] {
			t.Fatalf("sample %d differs across formats: %+v vs %+v", i, s2[i], s3[i])
		}
	}
	if v3.Len() >= v2.Len() {
		t.Errorf("mbw3 replay is %d B, not smaller than default %d B", v3.Len(), v2.Len())
	}
	if _, err := Run(context.Background(), dir, io.Discard, Options{Unpaced: true, Format: wire.Format(9)}); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := Run(context.Background(), dir, io.Discard, Options{Unpaced: true, Format: wire.FormatMBW1}); err == nil ||
		!strings.Contains(err.Error(), "mbw1") {
		t.Fatalf("mbw1 replay: err = %v, want a refusal naming mbw1", err)
	}
}

func TestReplayPacingSleeps(t *testing.T) {
	dir := writeCampaign(t, 1, 4096)
	var slept time.Duration
	var buf bytes.Buffer
	_, err := Run(context.Background(), dir, &buf, Options{
		Speedup:      10,
		BatchSamples: 2048,
		Sleep:        func(d time.Duration) { slept += d },
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2048 samples × 25µs ≈ 51.2ms of virtual time per flushed batch; at
	// 10× speedup ≈ 5.12ms per batch, two full batches ≈ 10.2ms total.
	if slept < 8*time.Millisecond || slept > 13*time.Millisecond {
		t.Errorf("slept %v, want ≈10.2ms", slept)
	}
}

func TestReplayMaxGapClampsSleeps(t *testing.T) {
	dir := writeCampaign(t, 1, 4096)
	run := func(maxGap time.Duration) (time.Duration, Stats) {
		var slept time.Duration
		var buf bytes.Buffer
		st, err := Run(context.Background(), dir, &buf, Options{
			Speedup:      10,
			BatchSamples: 2048,
			MaxGap:       maxGap,
			Sleep:        func(d time.Duration) { slept += d },
		})
		if err != nil {
			t.Fatal(err)
		}
		return slept, st
	}
	// Unclamped: ≈5.12 ms per flushed batch (see TestReplayPacingSleeps).
	// A 1 ms MaxGap caps each of the two sleeps.
	clamped, st := run(time.Millisecond)
	if clamped > 2*time.Millisecond {
		t.Errorf("clamped sleep total %v exceeds 2×MaxGap", clamped)
	}
	if st.GapClamps != 2 {
		t.Errorf("GapClamps = %d, want 2", st.GapClamps)
	}
	if st.Samples != 4096 {
		t.Errorf("samples = %d: clamping must not drop data", st.Samples)
	}
	// Zero MaxGap preserves gaps verbatim.
	verbatim, st0 := run(0)
	if verbatim <= clamped {
		t.Errorf("verbatim sleep %v not above clamped %v", verbatim, clamped)
	}
	if st0.GapClamps != 0 {
		t.Errorf("GapClamps = %d without MaxGap", st0.GapClamps)
	}
}

func TestReplayWindowSelection(t *testing.T) {
	dir := writeCampaign(t, 4, 100)
	var buf bytes.Buffer
	st, err := Run(context.Background(), dir, &buf, Options{Unpaced: true, Windows: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Windows != 2 || st.Samples != 200 {
		t.Errorf("stats = %+v", st)
	}
}

func TestReplayErrors(t *testing.T) {
	if _, err := Run(context.Background(), filepath.Join(t.TempDir(), "missing"), &bytes.Buffer{}, Options{}); err == nil {
		t.Error("missing campaign accepted")
	}
	dir := writeCampaign(t, 1, 10)
	if _, err := Run(context.Background(), dir, failingWriter{}, Options{Unpaced: true, BatchSamples: 4}); err == nil {
		t.Error("write failure not propagated")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func TestReplayIntoLiveCollector(t *testing.T) {
	// End-to-end: replay a campaign into a real collector service.
	dir := writeCampaign(t, 2, 3000)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &collector.MemSink{}
	srv := collector.ServeConfigured(ln, sink.Handle, collector.ServerConfig{})
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(context.Background(), dir, conn, Options{Unpaced: true})
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.Samples()) < st.Samples {
		if time.Now().After(deadline) {
			t.Fatalf("collector got %d/%d", len(sink.Samples()), st.Samples)
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.LastErr(); err != nil {
		t.Errorf("stream error: %v", err)
	}
}

// TestReplayIntoDurableShard replays a campaign with two windows per rack
// over loopback into a durable Shard and requires every sample archived.
// Each window restarts virtual time, so the shard's epoch gate admits a
// rack's later windows only because replay stamps each window with a new
// epoch.
func TestReplayIntoDurableShard(t *testing.T) {
	dir := writeRackCampaign(t, 4, 2, 3000)
	archDir := filepath.Join(t.TempDir(), "arch")
	arch, err := trace.CreateArchive(archDir, trace.ArchiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	figs, err := collector.NewLiveFigures(collector.LiveFiguresConfig{
		SpeedOf: func(uint32, uint16) uint64 { return 10_000_000_000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := &collector.IngestStats{}
	m := collector.NewServerMetrics(obs.NewRegistry())
	sh, err := collector.NewShard(collector.ShardConfig{
		Figures:        figs,
		Stats:          stats,
		Archive:        arch,
		CheckpointPath: filepath.Join(archDir, "checkpoint.json"),
		GateMetrics:    m,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := collector.ServeConfigured(ln, sh.Handle, collector.ServerConfig{Metrics: m})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(context.Background(), dir, conn, Options{Unpaced: true})
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// The connection goroutine exits once it has read the stream to EOF.
	deadline := time.Now().Add(5 * time.Second)
	for m.Conns.Value() != 1 || m.ActiveConns.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("collector never drained the replay stream")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sh.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	archived := 0
	if err := trace.IterArchive(archDir, func(b *wire.Batch) error {
		archived += len(b.Samples)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := stats.Snapshot().Samples; archived != st.Samples || got != uint64(st.Samples) {
		t.Errorf("replayed %d samples, ingested %d, archived %d", st.Samples, got, archived)
	}
	if n := m.ReorderedBatches.Value(); n != 0 {
		t.Errorf("gate dropped %d batches as reordered", n)
	}
}
