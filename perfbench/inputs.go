package main

import (
	"context"
	"fmt"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/core"
	"mburst/internal/simclock"
	"mburst/internal/topo"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

// This file builds the benchmark's inputs. The ingest and fleet phases
// each record one short simulated window per rack in set-up and then
// cycle it for as long as the run needs, so the simulator's cost lands in
// set-up and a long run never re-simulates.

// sampleInterval is the paper's polling interval.
const sampleInterval = 25 * simclock.Microsecond

// recordRacks simulates one window per rack on the campaign runner and
// returns each rack's samples in emission order.
func recordRacks(ctx context.Context, cfg core.Config, app workload.App, plan func(*core.Experiment) core.CounterPlan) ([][]wire.Sample, error) {
	exp, err := core.NewExperiment(cfg)
	if err != nil {
		return nil, err
	}
	p := plan(exp)
	cells := make([]core.Cell, cfg.Racks)
	for r := range cells {
		cells[r] = core.Cell{App: app, RackID: r, Plan: p, Interval: sampleInterval}
	}
	out := make([][]wire.Sample, cfg.Racks)
	err = exp.Runner().Run(ctx, cells, func(i int, run *core.CellRun) error {
		if len(run.Samples) == 0 {
			return fmt.Errorf("rack %d recorded no samples", i)
		}
		out[i] = run.Samples
		return nil
	})
	return out, err
}

// cumulative reports whether a counter kind only ever grows, so a cycle
// must advance it; the buffer-peak register is a clear-on-read level.
func cumulative(k asic.CounterKind) bool { return k != asic.KindBufferPeak }

// cycler replays one recorded window forever. Cycle c shifts every sample
// time by c spans and every cumulative counter by c times its per-window
// delta, so each series stays monotone across the seam between cycles.
// The seam repeats the window's first polling step: its length, its
// missed-interval count and each counter's increase equal those from the
// window's first poll to its second, so the seam shows no idle gap and no
// super-line-rate step.
type cycler struct {
	base  []wire.Sample
	lo    simclock.Time // time of the window's first poll
	span  simclock.Duration
	delta []seriesDelta // per sample index
}

type seriesDelta struct {
	value  uint64
	bins   [asic.NumSizeBins]uint64
	missed uint32 // Missed of the series' second sample
}

// newCycler derives the per-series deltas of one recorded window. Every
// counter of one poll shares its time; fallback is the step used when
// the window holds a single poll.
func newCycler(base []wire.Sample, fallback simclock.Duration) *cycler {
	type firsts struct {
		first, second, last wire.Sample
		n                   int
	}
	bySeries := make(map[analysis.SeriesKey]*firsts)
	lo, hi := base[0].Time, base[0].Time
	for _, s := range base {
		lo, hi = min(lo, s.Time), max(hi, s.Time)
		k := analysis.SeriesKey{Port: s.Port, Dir: s.Dir, Kind: s.Kind}
		f := bySeries[k]
		if f == nil {
			f = &firsts{first: s}
			bySeries[k] = f
		}
		if f.n == 1 {
			f.second = s
		}
		f.last = s
		f.n++
	}
	step := fallback
	for _, s := range base {
		if s.Time > lo {
			step = s.Time.Sub(lo)
			break
		}
	}
	deltas := make(map[analysis.SeriesKey]seriesDelta, len(bySeries))
	for k, f := range bySeries {
		var d seriesDelta
		if f.n > 1 {
			d.missed = f.second.Missed
			if cumulative(k.Kind) {
				d.value = f.last.Value - f.first.Value + f.second.Value - f.first.Value
				for j := range d.bins {
					d.bins[j] = f.last.Bins[j] - f.first.Bins[j] + f.second.Bins[j] - f.first.Bins[j]
				}
			}
		}
		deltas[k] = d
	}
	c := &cycler{base: base, lo: lo, span: hi.Sub(lo) + step, delta: make([]seriesDelta, len(base))}
	for i, s := range base {
		c.delta[i] = deltas[analysis.SeriesKey{Port: s.Port, Dir: s.Dir, Kind: s.Kind}]
	}
	return c
}

// len is the number of samples in one cycle.
func (c *cycler) len() int { return len(c.base) }

// at returns sample n of the endless stream.
func (c *cycler) at(n int) wire.Sample {
	cyc, i := n/len(c.base), n%len(c.base)
	s := c.base[i]
	if cyc == 0 {
		return s
	}
	k := uint64(cyc)
	d := &c.delta[i]
	if s.Time == c.lo {
		s.Missed = d.missed
	}
	s.Time = s.Time.Add(simclock.Duration(cyc) * c.span)
	s.Value += k * d.value
	if s.Kind == asic.KindSizeBins {
		for j := range s.Bins {
			s.Bins[j] += k * d.bins[j]
		}
	}
	return s
}

// fill writes samples [n, n+len(dst)) of the stream into dst.
func (c *cycler) fill(dst []wire.Sample, n int) {
	for i := range dst {
		dst[i] = c.at(n + i)
	}
}

// figuresConfig is the live-figures configuration for a rack shape.
func figuresConfig(rack topo.Rack) collector.LiveFiguresConfig {
	return collector.LiveFiguresConfig{
		SpeedOf: func(_ uint32, port uint16) uint64 {
			if rack.IsUplink(int(port)) {
				return rack.UplinkSpeed
			}
			return rack.ServerSpeed
		},
		IsUplink: func(_ uint32, port uint16) bool { return rack.IsUplink(int(port)) },
	}
}
