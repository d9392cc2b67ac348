package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mburst/internal/core"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

// The campaign phase is a closed-loop batch job, repeated a fixed number
// of times: simulate racks × windows of 32-server racks polling
// every port's byte counter at 25 µs (the Fig 8/9 plan) on core.Runner,
// write them as MBW3 trace-v2, read them back and stream-analyse them for
// every analysis kind.

const (
	campaignRacks   = 2
	campaignWindows = 2
	campaignServers = 32
	campaignWindow  = 20 * simclock.Millisecond
	campaignWarmup  = 5 * simclock.Millisecond
)

// campaignResult holds per-job rates; the phase reports their medians,
// which a burst of load from outside the benchmark barely moves.
type campaignResult struct {
	jobs, cells int
	simX        []float64 // simulated s per wall s, whole job
	analyzeRate []float64 // samples × kinds per analysis s
}

// run runs n more campaign jobs, each on its own seed.
func (res *campaignResult) run(ctx context.Context, app workload.App, seed uint64, workers, n int, dir string, tr *tracer) error {
	for ; n > 0; n-- {
		job := res.jobs
		if err := campaignJob(ctx, app, seed*1_000_003+uint64(job), workers, filepath.Join(dir, "job"+strconv.Itoa(job)), int64(job), res, tr); err != nil {
			return fmt.Errorf("campaign job %d: %w", job, err)
		}
		res.jobs++
	}
	return nil
}

func campaignJob(ctx context.Context, app workload.App, seed uint64, workers int, dir string, job int64, res *campaignResult, tr *tracer) error {
	defer os.RemoveAll(dir)
	cfg := core.Config{
		Racks: campaignRacks, Windows: campaignWindows,
		WindowDur: campaignWindow, Warmup: campaignWarmup,
		Servers: campaignServers, Seed: seed, Diurnal: true,
		Workers: workers, WireFormat: wire.FormatMBW3,
	}
	exp, err := core.NewExperiment(cfg)
	if err != nil {
		return err
	}
	rack := exp.Rack()
	plan := core.AllPortCounters(false)
	var cells []core.Cell
	for r := 0; r < cfg.Racks; r++ {
		for w := 0; w < cfg.Windows; w++ {
			cells = append(cells, core.Cell{App: app, RackID: r, Window: w, Plan: plan, Interval: sampleInterval})
		}
	}

	jobStart := time.Now()
	w, err := trace.Create(dir, trace.Meta{
		App:         app.String(),
		NumServers:  rack.NumServers,
		NumUplinks:  rack.NumUplinks,
		ServerSpeed: rack.ServerSpeed,
		UplinkSpeed: rack.UplinkSpeed,
		Interval:    sampleInterval,
		WindowDur:   cfg.WindowDur,
		Windows:     len(cells),
		Seed:        seed,
		Counters:    plan(rack, 0, 0),
		Format:      wire.FormatMBW3.String(),
	})
	if err != nil {
		return err
	}
	written := make([][]wire.Sample, len(cells))
	var mu sync.Mutex // trace.Writer is not safe for concurrent WriteWindow
	last := make(map[int64]time.Time)
	runStart := time.Now()
	err = exp.Runner().Run(ctx, cells, func(i int, run *core.CellRun) error {
		visit := time.Now()
		if tr != nil {
			// A worker goroutine runs its next cell as soon as visit
			// returns, so a cell spans from the previous visit's return
			// on the same goroutine (or the start of Run) to this visit.
			g := goroutineID()
			mu.Lock()
			from, ok := last[g]
			mu.Unlock()
			if !ok {
				from = runStart
			}
			tr.add("core.runner.cell", job*100+int64(i), -1, from, visit)
			tr.observe("collector.poller.samples", float64(len(run.Samples)))
			tr.observe("collector.poller.miss_rate", run.MissRate)
			defer func() {
				mu.Lock()
				last[g] = time.Now()
				mu.Unlock()
			}()
		}
		mu.Lock()
		defer mu.Unlock()
		written[i] = run.Samples
		h := tr.begin("trace.writer.window", job*100+int64(i), -1)
		err := w.WriteWindow(i, uint32(run.Cell.RackID), run.Samples)
		tr.end(h)
		return err
	})
	if err != nil {
		return err
	}
	r, err := trace.Open(dir)
	if err != nil {
		return err
	}
	var samples int
	for _, s := range written {
		samples += len(s)
	}
	anaStart := time.Now()
	for _, kind := range core.AnalyzeKinds {
		h := tr.begin("analysis."+kind, job, -1)
		a, err := core.AnalyzeTrace(r, kind, 0, true)
		tr.end(h)
		if err != nil {
			return fmt.Errorf("analyze %s: %w", kind, err)
		}
		if a.Windows != len(cells) {
			return fmt.Errorf("analyze %s: %d of %d windows decoded", kind, a.Windows, len(cells))
		}
	}
	end := time.Now()
	res.cells += len(cells)
	simulated := float64(len(cells)) * (cfg.WindowDur + cfg.Warmup).Seconds()
	res.simX = append(res.simX, simulated/end.Sub(jobStart).Seconds())
	res.analyzeRate = append(res.analyzeRate, float64(samples*len(core.AnalyzeKinds))/end.Sub(anaStart).Seconds())

	// Outside the job's time. The traced run times a bare read pass, the
	// reader's own cost that analysis self time is measured against.
	if tr != nil {
		h := tr.begin("trace.reader.pass", job, -1)
		for i := range written {
			if err := r.IterWindow(i, func(*wire.Batch) error { return nil }); err != nil {
				return err
			}
		}
		tr.end(h)
	}
	// Every window decodes and reads back exactly the samples written.
	for i, want := range written {
		n := 0
		err := r.IterWindow(i, func(b *wire.Batch) error {
			for _, s := range b.Samples {
				if n >= len(want) || s != want[n] {
					return fmt.Errorf("sample %d differs from the one written", n)
				}
				n++
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("window %d: %w", i, err)
		}
		if n != len(want) {
			return fmt.Errorf("window %d: read %d samples, wrote %d", i, n, len(want))
		}
	}
	if tr != nil {
		size, err := dirBytes(dir)
		if err != nil {
			return err
		}
		tr.observe("trace.writer.bytes_per_sample", float64(size)/float64(samples))
	}
	return nil
}

// goroutineID parses the running goroutine's ID from its stack header.
func goroutineID() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// dirBytes sums the sizes of the window files in a trace directory.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".mbw" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
