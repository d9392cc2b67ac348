package main

import (
	"context"
	"reflect"
	"testing"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/core"
	"mburst/internal/simclock"
	"mburst/internal/topo"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

// recording simulates one small full-counter rack window.
func recording(t *testing.T, app workload.App) []wire.Sample {
	t.Helper()
	recs, err := recordRacks(context.Background(), core.Config{
		Racks: 1, Windows: 1,
		WindowDur: 2 * simclock.Millisecond, Warmup: simclock.Millisecond,
		Servers: 8, Seed: 7, Workers: 1,
	}, app, func(*core.Experiment) core.CounterPlan { return core.FullCounters() })
	if err != nil {
		t.Fatal(err)
	}
	return recs[0]
}

func TestCyclerMonotoneAcrossSeams(t *testing.T) {
	for _, app := range workload.Apps {
		base := recording(t, app)
		c := newCycler(base, sampleInterval)
		last := make(map[analysis.SeriesKey]wire.Sample)
		for n := 0; n < 3*c.len(); n++ {
			s := c.at(n)
			k := analysis.SeriesKey{Port: s.Port, Dir: s.Dir, Kind: s.Kind}
			prev, ok := last[k]
			last[k] = s
			if !ok {
				continue
			}
			if s.Time <= prev.Time {
				t.Fatalf("%v: series %v time %v follows %v at stream sample %d", app, k, s.Time, prev.Time, n)
			}
			if !cumulative(s.Kind) {
				continue
			}
			if s.Value < prev.Value {
				t.Fatalf("%v: series %v value %d follows %d at stream sample %d", app, k, s.Value, prev.Value, n)
			}
			for j := range s.Bins {
				if s.Bins[j] < prev.Bins[j] {
					t.Fatalf("%v: series %v bin %d decreases at stream sample %d", app, k, j, n)
				}
			}
		}
	}
}

func TestCyclerSeamRepeatsFirstStep(t *testing.T) {
	base := recording(t, workload.Hadoop)
	c := newCycler(base, sampleInterval)
	type pair struct{ first, second, last, next wire.Sample }
	steps := make(map[analysis.SeriesKey]*pair)
	for n := 0; n < c.len()+c.len()/2; n++ {
		s := c.at(n)
		if s.Kind != asic.KindBytes {
			continue
		}
		k := analysis.SeriesKey{Port: s.Port, Dir: s.Dir, Kind: s.Kind}
		p := steps[k]
		switch {
		case p == nil:
			steps[k] = &pair{first: s}
		case p.second == (wire.Sample{}):
			p.second = s
		case n < c.len():
			p.last = s
		case p.next == (wire.Sample{}):
			p.next = s
		}
	}
	for k, p := range steps {
		if got, want := p.next.Value-p.last.Value, p.second.Value-p.first.Value; got != want {
			t.Errorf("series %v: seam step %d bytes, first step %d", k, got, want)
		}
		if got, want := p.next.Time.Sub(p.last.Time), p.second.Time.Sub(p.first.Time); got != want {
			t.Errorf("series %v: seam step lasts %v, first step %v", k, got, want)
		}
		if p.next.Missed != p.second.Missed {
			t.Errorf("series %v: seam step missed %d intervals, first step %d", k, p.next.Missed, p.second.Missed)
		}
	}
}

func TestCyclerCycleFiguresEqualRecording(t *testing.T) {
	base := recording(t, workload.Web)
	c := newCycler(base, sampleInterval)
	cfg := figuresConfig(topo.Default(8))
	feed := func(samples []wire.Sample) collector.FiguresSnapshot {
		f, err := collector.NewLiveFigures(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(samples); lo += 100 {
			hi := min(lo+100, len(samples))
			f.Handle(&wire.Batch{Rack: 3, Samples: samples[lo:hi]})
		}
		return f.Snapshot()
	}
	want := feed(base)
	cycled := make([]wire.Sample, c.len())
	// Any one cycle, fed alone, is the recording shifted in time and
	// counter value, which no figure can see.
	for _, cyc := range []int{0, 1, 5} {
		c.fill(cycled, cyc*c.len())
		if got := feed(cycled); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d's live figures differ from the recording's:\n got %+v\nwant %+v", cyc, got, want)
		}
	}
}
