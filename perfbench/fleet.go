package main

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mburst/internal/collector"
	"mburst/internal/shard"
	"mburst/internal/simclock"
	"mburst/internal/topo"
	"mburst/internal/wire"
)

// The fleet phase is a closed-loop replay of a 1000-rack recording (the
// mbfleet shape: 8-server racks, 2 ms windows, one random port per rack)
// through per-rack wire.Writer → wire.Reader → placement onto volatile
// collector.Shards → Shard.Publish every few batches → Aggregator.Offer,
// in rounds of one cycle per rack. A final Deliver/Flush and FleetState +
// FleetFigures end it.

const (
	fleetRacks        = 1000
	fleetServers      = 8
	fleetShards       = 8
	fleetWindow       = 2 * simclock.Millisecond
	fleetWarmup       = 500 * simclock.Microsecond
	fleetPublishEvery = 8
	fleetCutsPerRound = 4
	fleetPlacement    = 1 // placement seed, as mbfleet's default
	fleetTraceEvery   = 8 // the traced run records spans in every 8th round
)

func fleetRack() topo.Rack { return topo.Default(fleetServers) }

type fleetShardState struct {
	mu      sync.Mutex // the benchmark's per-shard fan-in lock
	s       *collector.Shard
	batches int
	racks   int
}

// rackStream is one rack's agent: its wire stream and owning shard.
type rackStream struct {
	buf bytes.Buffer
	w   *wire.Writer
	r   *wire.Reader
	k   *fleetShardState
}

// fleetRun is the fleet phase's state between replay steps.
type fleetRun struct {
	gens    []*cycler
	workers int
	tr      *tracer
	figCfg  collector.LiveFiguresConfig
	shards  []*fleetShardState
	racks   []*rackStream
	agg     *collector.Aggregator

	rounds        int
	batches       int64
	rates         []float64 // samples/s of each round
	merges        []float64 // ms of each final-style cut
	offers, taken atomic.Int64
}

type fleetResult struct {
	rounds      int
	batches     int64
	rates       []float64
	mergeMs     float64 // median final Deliver → FleetFigures
	merged      int64   // batches the fleet state accounts for
	skew        float64
	offers      int64
	offersTaken int64
}

func newFleetRun(gens []*cycler, workers int, tr *tracer) (*fleetRun, error) {
	pl, err := shard.Uniform(fleetShards, fleetPlacement)
	if err != nil {
		return nil, err
	}
	f := &fleetRun{gens: gens, workers: workers, tr: tr, figCfg: figuresConfig(fleetRack())}
	f.shards = make([]*fleetShardState, fleetShards)
	for k := range f.shards {
		figs, err := collector.NewLiveFigures(f.figCfg)
		if err != nil {
			return nil, err
		}
		s, err := collector.NewShard(collector.ShardConfig{ID: k, Placement: &pl, Figures: figs, Stats: &collector.IngestStats{}})
		if err != nil {
			return nil, err
		}
		f.shards[k] = &fleetShardState{s: s}
	}
	f.agg, err = collector.NewAggregator(collector.AggregatorConfig{Shards: fleetShards, Figures: f.figCfg})
	if err != nil {
		return nil, err
	}
	f.racks = make([]*rackStream, len(gens))
	for i := range f.racks {
		rs := &rackStream{k: f.shards[pl.ShardOf(uint32(i))]}
		if rs.w, err = wire.NewWriterFormat(&rs.buf, wire.FormatMBW3); err != nil {
			f.agg.Close()
			return nil, err
		}
		rs.r = wire.NewReader(&rs.buf)
		rs.r.SetReuse(true)
		rs.k.racks++
		f.racks[i] = rs
	}
	return f, nil
}

// replay runs n more rounds, each on nproc workers pulling racks.
func (f *fleetRun) replay(n int) error {
	for ; n > 0; n-- {
		round := f.rounds
		tr := f.tr
		if round%fleetTraceEvery != 0 {
			tr = nil
		}
		start := time.Now()
		var next atomic.Int64
		errs := make([]error, f.workers)
		var wg sync.WaitGroup
		for w := 0; w < f.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var scratch []wire.Sample
				for errs[w] == nil {
					i := int(next.Add(1) - 1)
					if i >= len(f.racks) {
						return
					}
					errs[w] = f.replayBatch(i, round, &scratch, tr)
				}
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		var samples int64
		for _, g := range f.gens {
			samples += int64(g.len())
		}
		f.rates = append(f.rates, float64(samples)/time.Since(start).Seconds())
		f.rounds++
		f.batches += int64(len(f.gens))
	}
	return nil
}

// replayBatch sends rack i's cycle round through its wire stream into
// its shard, publishing every fleetPublishEvery batches the shard takes.
func (f *fleetRun) replayBatch(i, round int, scratch *[]wire.Sample, tr *tracer) error {
	rs, gen := f.racks[i], f.gens[i]
	n := gen.len()
	if cap(*scratch) < n {
		*scratch = make([]wire.Sample, n)
	}
	samples := (*scratch)[:n]
	gen.fill(samples, round*n)
	id := int64(i)<<32 | int64(round)
	h := tr.begin("wire.encode", id, -1)
	err := rs.w.WriteBatch(&wire.Batch{Rack: uint32(i), Epoch: 1, Samples: samples})
	tr.end(h)
	if err != nil {
		return err
	}
	h = tr.begin("wire.decode", id, -1)
	b, err := rs.r.ReadBatch()
	tr.end(h)
	if err != nil {
		return err
	}
	sh := rs.k
	h = tr.begin("collector.shard.lock_wait", id, -1)
	sh.mu.Lock()
	tr.end(h)
	defer sh.mu.Unlock()
	h = tr.begin("collector.shard.volatile_handle", id, -1)
	sh.s.Handle(b)
	tr.end(h)
	sh.batches++
	if sh.batches%fleetPublishEvery == 0 {
		h = tr.begin("collector.shard.publish", id, -1)
		u := sh.s.Publish()
		tr.end(h)
		h = tr.begin("collector.aggregator.offer", id, -1)
		ok := f.agg.Offer(u)
		tr.end(h)
		f.offers.Add(1)
		if ok {
			f.taken.Add(1)
		}
	}
	return nil
}

// cut makes n final-style cuts — every shard publishes and delivers, the
// aggregator drains, and the fleet view is rendered — timing each from
// the first Deliver to FleetFigures' return. Repeats carry the same
// state under newer sequence numbers, so each goes through the full
// merge. Each cut starts from a collected heap, so the garbage earlier
// work left behind does not decide which cuts a collection lands in. It
// returns the last cut's state and render.
func (f *fleetRun) cut(n int) (collector.FleetState, collector.FiguresSnapshot, error) {
	var state collector.FleetState
	var figs collector.FiguresSnapshot
	for i := 0; i < n; i++ {
		updates := make([]collector.ShardUpdate, len(f.shards))
		for k, sh := range f.shards {
			updates[k] = sh.s.Publish()
		}
		id := int64(len(f.merges))
		runtime.GC()
		t0 := time.Now()
		h := f.tr.begin("collector.aggregator.flush", id, -1)
		for _, u := range updates {
			f.agg.Deliver(u)
		}
		f.agg.Flush()
		f.tr.end(h)
		h = f.tr.begin("collector.aggregator.render", id, -1)
		var err error
		if state, err = f.agg.FleetState(); err != nil {
			return state, figs, err
		}
		if figs, err = f.agg.FleetFigures(); err != nil {
			return state, figs, err
		}
		f.tr.end(h)
		f.merges = append(f.merges, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return state, figs, nil
}

// finish makes the final cut and checks it against the oracle.
func (f *fleetRun) finish() (*fleetResult, error) {
	defer f.agg.Close()
	state, figs, err := f.cut(fleetCutsPerRound)
	if err != nil {
		return nil, err
	}
	res := &fleetResult{rounds: f.rounds, batches: f.batches, rates: f.rates,
		mergeMs: median(f.merges), merged: int64(state.Ingest.Batches),
		offers: f.offers.Load(), offersTaken: f.taken.Load()}
	maxRacks, sum := 0, 0
	for _, sh := range f.shards {
		sum += sh.racks
		maxRacks = max(maxRacks, sh.racks)
	}
	res.skew = float64(maxRacks) / (float64(sum) / float64(len(f.shards)))

	if err := fleetOracle(f.gens, f.rounds, f.figCfg, state, figs); err != nil {
		return nil, err
	}
	return res, nil
}

// fleetOracle replays the same rounds through one unsharded shard and
// compares its state and render with the fleet's. It runs outside the
// timed region.
func fleetOracle(gens []*cycler, rounds int, figCfg collector.LiveFiguresConfig, got collector.FleetState, gotFigs collector.FiguresSnapshot) error {
	figs, err := collector.NewLiveFigures(figCfg)
	if err != nil {
		return err
	}
	oracle, err := collector.NewShard(collector.ShardConfig{Figures: figs, Stats: &collector.IngestStats{}})
	if err != nil {
		return err
	}
	var samples []wire.Sample
	for round := 0; round < rounds; round++ {
		for i, g := range gens {
			if cap(samples) < g.len() {
				samples = make([]wire.Sample, g.len())
			}
			samples = samples[:g.len()]
			g.fill(samples, round*g.len())
			oracle.Handle(&wire.Batch{Rack: uint32(i), Epoch: 1, Samples: samples})
		}
	}
	want := oracle.Publish()
	if !reflect.DeepEqual(got.Figures, want.Figures) {
		return fmt.Errorf("fleet figures state differs from the single-shard oracle")
	}
	if !reflect.DeepEqual(got.Ingest, want.Ingest) {
		return fmt.Errorf("fleet ingest totals differ from the single-shard oracle")
	}
	render, err := collector.NewLiveFigures(figCfg)
	if err != nil {
		return err
	}
	render.RestoreState(want.Figures)
	if !reflect.DeepEqual(gotFigs, render.Snapshot()) {
		return fmt.Errorf("fleet figures render differs from the single-shard oracle")
	}
	return nil
}
