// Command mbcollectd is the standalone collector service: it accepts TCP
// connections from switch-side sampling clients (collector.Client),
// decodes their batch streams, and runs every batch through a one-shard
// collector — the same collector.Shard pipeline mbfleet runs per shard
// and the benchmark measures: epoch gate, optional durable archive,
// ingest accounting and the live-figures tap.
//
// Usage:
//
//	mbcollectd -listen 127.0.0.1:9900 [-archive DIR [-resume] [-checkpoint N]]
//	           [-stats 5s] [-http :9901] [-servers 16] [-threshold 0.5]
//	           [-tracing] [-tracerate R] [-tracecap N]
//	           [-shard I -shards M [-placementseed S]]
//
// The epoch gate always runs: batches from superseded agent epochs and
// time-regressing duplicates within an epoch are dropped and counted. A
// sender whose clock restarts must raise its epoch (mbagent -epoch does;
// mbreplay stamps each recorded window with its own).
//
// With -shard/-shards the daemon is one shard of a fleet collection
// plane: the rendezvous placement (internal/shard, seeded by
// -placementseed, shared with the agents) assigns every rack to exactly
// one shard, and batches from racks this shard does not own are dropped
// and counted as misrouted — a placement-generation mismatch signal —
// instead of polluting the shard's accumulators. The active placement
// is served at /placement on the debug mux.
//
// With -archive the collector is durable: admitted batches flow into a
// segmented, fsynced, crash-safe archive (internal/trace), and every
// -checkpoint batches the volatile state (live figures, ingest counters,
// gate horizons) is checkpointed atomically next to it. After a crash,
// -resume recovers the archive (truncating any torn tail), restores the
// last checkpoint, and replays the un-checkpointed archive tail, so the
// daemon restarts with exactly the state it would have had — agents
// that retransmit their spool are deduplicated by the restored gate. A
// checkpoint without figures state (written before the figures tap was
// always on) is ignored and the whole archive replayed. A failed archive
// write or sync is fatal: the daemon exits non-zero rather than silently
// dropping data. Without -archive nothing is persisted.
//
// With -http the daemon serves its debug surface (see README
// "Observability"): Prometheus metrics at /metrics, a JSON snapshot at
// /stats, the legacy ingest snapshot at /stats/ingest, /healthz,
// /debug/pprof/, and the running Fig 3/4/6/9 statistics of the
// live-figures tap at /figures (see README "Streaming analysis"). The
// tap always runs, as on every fleet shard; its state is O(series +
// closed bursts), not O(samples).
//
// With -tracing the daemon records pipeline spans (internal/ptrace) for
// each ingested batch — server.ingest, epoch.gate verdicts, archive
// writes, checkpoints — and serves them at /spans (JSON) and /tracez
// (waterfall) on the debug mux; cmd/mbtrace renders either.
//
// Shut down with SIGINT/SIGTERM; the listener drains connections, the
// archive seals, and a final checkpoint is written before exiting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mburst/internal/analysis"
	"mburst/internal/collector"
	"mburst/internal/obs"
	"mburst/internal/ptrace"
	"mburst/internal/shard"
	"mburst/internal/topo"
	"mburst/internal/trace"
	"mburst/internal/wire"
)

func main() {
	os.Exit(run())
}

func run() int {
	listen := flag.String("listen", "127.0.0.1:9900", "listen address")
	archiveDir := flag.String("archive", "", "durable archive directory (segmented, fsynced, crash-recoverable)")
	resume := flag.Bool("resume", false, "recover the -archive directory and restore the last checkpoint before serving")
	checkpointEvery := flag.Int("checkpoint", collector.DefaultCheckpointEvery, "checkpoint the collector state every N admitted batches (-archive mode)")
	wireFmt := flag.String("wire", "", "wire format for the archive; ingest accepts every format regardless (mbw1, mbw2, mbw3; default mbw2)")
	statsEvery := flag.Duration("stats", 5*time.Second, "stats log interval")
	httpAddr := flag.String("http", "", "debug HTTP address (/metrics, /stats, /healthz, /debug/pprof/)")
	servers := flag.Int("servers", 16, "servers per rack, for the /figures port speed map")
	threshold := flag.Float64("threshold", analysis.DefaultHotThreshold, "hot threshold for /figures")
	tracing := flag.Bool("tracing", false, "record pipeline spans and serve /spans and /tracez (needs -http)")
	traceRate := flag.Float64("tracerate", 0, "fraction of batch traces kept by the deterministic head sampler (0 = all)")
	traceCap := flag.Int("tracecap", ptrace.DefaultCapacity, "span ring capacity")
	shardID := flag.Int("shard", -1, "this collector's shard index in the fleet placement (requires -shards)")
	numShards := flag.Int("shards", 0, "fleet shard count; with -shard, drop batches from racks the placement owns elsewhere")
	placementSeed := flag.Uint64("placementseed", 1, "rendezvous placement seed (must match the agents')")
	flag.Parse()

	logger := obs.DaemonLogger("mbcollectd")
	reg := obs.NewRegistry()
	obs.RegisterGoRuntime(reg)

	var tracer *ptrace.Tracer
	if *tracing {
		tracer = ptrace.New(ptrace.Config{
			Capacity:   *traceCap,
			SampleRate: *traceRate,
			Metrics:    reg,
		})
	}

	var format wire.Format
	if *wireFmt != "" {
		var err error
		if format, err = wire.ParseFormat(*wireFmt); err != nil {
			logger.Error("parsing wire format", "err", err)
			return 2
		}
	}

	rack := topo.Default(*servers)
	figs, err := collector.NewLiveFigures(collector.LiveFiguresConfig{
		SpeedOf: func(_ uint32, port uint16) uint64 {
			if rack.IsUplink(int(port)) {
				return rack.UplinkSpeed
			}
			return rack.ServerSpeed
		},
		IsUplink:  func(_ uint32, port uint16) bool { return rack.IsUplink(int(port)) },
		Threshold: *threshold,
		Tracer:    tracer,
	})
	if err != nil {
		logger.Error("live figures", "err", err)
		return 1
	}
	stats := &collector.IngestStats{}
	srvMetrics := collector.NewServerMetrics(reg)
	cfg := collector.ShardConfig{
		Figures:         figs,
		Stats:           stats,
		GateMetrics:     srvMetrics,
		RecoveryMetrics: collector.NewRecoveryMetrics(reg),
		Metrics:         collector.NewShardMetrics(reg),
		Tracer:          tracer,
	}

	// Shard mode: police placement ownership ahead of the pipeline, so a
	// placement-generation mismatch between agents and collectors shows
	// up as counted misrouted drops instead of double-counted series.
	if *numShards > 0 {
		pl, err := shard.Uniform(*numShards, *placementSeed)
		if err != nil {
			logger.Error("building placement", "err", err)
			return 2
		}
		cfg.ID, cfg.Placement = *shardID, &pl
	} else if *shardID >= 0 {
		logger.Error("-shard needs -shards")
		return 2
	}

	var arch *trace.ArchiveWriter
	if *archiveDir != "" {
		acfg := trace.ArchiveConfig{Format: format}
		var rec *trace.ArchiveRecovery
		if *resume {
			arch, rec, err = trace.ResumeArchive(*archiveDir, acfg)
		} else {
			arch, err = trace.CreateArchive(*archiveDir, acfg)
		}
		if err != nil {
			logger.Error("opening archive", "dir", *archiveDir, "err", err)
			return 1
		}
		if rec != nil {
			for _, s := range rec.Scanned {
				if s.Torn {
					logger.Warn("recovered torn segment", "segment", s.Name,
						"batches", s.Batches, "truncated_bytes", s.TruncatedBytes)
				}
			}
			logger.Info("archive recovered", "batches", rec.Batches, "samples", rec.Samples,
				"sealed_segments", rec.SealedSegments)
		}
		cfg.Archive = arch
		cfg.CheckpointPath = filepath.Join(*archiveDir, "checkpoint.json")
		cfg.Every = *checkpointEvery
	}
	sh, err := collector.NewShard(cfg)
	if err != nil {
		logger.Error("building collector", "err", err)
		return 2
	}
	if cfg.Placement != nil {
		logger.Info("sharded", "shard", cfg.ID, "of", *numShards,
			"name", cfg.Placement.Name(cfg.ID), "placement_version", cfg.Placement.Version)
	}
	if *resume {
		rep, err := sh.Resume(func(fn func(b *wire.Batch) error) error {
			return trace.IterArchive(*archiveDir, fn)
		})
		if err != nil {
			logger.Error("resuming from checkpoint", "err", err)
			return 1
		}
		logger.Info("resumed", "had_checkpoint", rep.HadCheckpoint,
			"checkpoint_batches", rep.CheckpointBatches, "replayed", rep.Replayed,
			"archive_batches", rep.ArchiveBatches)
		if rep.Shortfall > 0 {
			logger.Warn("archive shortfall: checkpointed batches missing from disk",
				"batches", rep.Shortfall)
		}
	}
	// After Resume, so the registry mirror carries over restored counts.
	stats.Attach(reg)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Error("listening", "addr", *listen, "err", err)
		return 1
	}
	srv := collector.ServeConfigured(ln, sh.Handle, collector.ServerConfig{Metrics: srvMetrics, Tracer: tracer})
	logger.Info("listening", "addr", srv.Addr().String(), "durable", arch != nil)

	if *httpAddr != "" {
		mux := obs.NewDebugMux(reg, nil)
		mux.Handle("/stats/ingest", stats)
		mux.Handle("/figures", figs)
		if tracer != nil {
			mux.Handle("/spans", tracer.SpansHandler())
			mux.Handle("/tracez", tracer.TracezHandler())
		}
		if cfg.Placement != nil {
			mux.HandleFunc("/placement", func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(struct {
					Shard     int              `json:"shard"`
					Placement *shard.Placement `json:"placement"`
				}{cfg.ID, cfg.Placement})
			})
		}
		ds, err := obs.StartDebug(*httpAddr, mux)
		if err != nil {
			logger.Error("debug http", "addr", *httpAddr, "err", err)
			return 1
		}
		defer ds.Close()
		logger.Info("debug http listening", "url", fmt.Sprintf("http://%s/metrics", ds.Addr()))
	}

	ticker := time.NewTicker(*statsEvery)
	defer ticker.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	for {
		select {
		case <-ticker.C:
			snap := stats.Snapshot()
			logger.Info("ingest", "batches", snap.Batches, "samples", snap.Samples, "racks", len(snap.PerRack))
			if err := srv.LastErr(); err != nil {
				logger.Warn("stream error", "err", err)
			}
			if err := sh.Err(); err != nil {
				logger.Error("archive dead, exiting", "err", err)
				srv.Close()
				return 1
			}
		case s := <-sig:
			logger.Info("draining", "signal", s.String())
			code := 0
			if err := srv.Close(); err != nil {
				logger.Error("closing listener", "err", err)
				code = 1
			}
			if arch != nil {
				if c := finalizeDurable(logger, sh, arch); c != 0 {
					code = c
				}
			}
			snap := stats.Snapshot()
			logger.Info("final", "batches", snap.Batches, "samples", snap.Samples, "exit", code)
			return code
		}
	}
}

// finalizeDurable writes the shutdown checkpoint and seals the archive,
// returning a non-zero exit code if durability could not be guaranteed.
// Separated from run so the failure paths are testable.
func finalizeDurable(logger *slog.Logger, sh *collector.Shard, arch *trace.ArchiveWriter) int {
	code := 0
	if err := sh.Checkpoint(); err != nil {
		logger.Error("final checkpoint", "err", err)
		code = 1
	}
	if err := arch.Close(); err != nil {
		logger.Error("sealing archive", "err", err)
		code = 1
	}
	return code
}
