// Command perfbench is the repository's benchmark. One run sets up
// seeded inputs, then measures three phases in turn — a campaign batch
// job, an open-loop live ingest and a closed-loop fleet replay — checks
// every output, and prints each metric by name with its unit. The last
// line of standard output is one JSON object with the result.
//
//	perfbench -workload web -seed 1 -seconds 20 -trace 0
//
// The workload names the application whose traffic every phase carries
// (web, cache or hadoop). With -trace 1 the run is made twice, untraced
// and then traced; it reports the per-layer metrics of the traced run
// and, per end-to-end metric, the traced run's overhead over the
// untraced one. See README.md for what each metric measures.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"mburst/internal/core"
	"mburst/internal/simclock"
	"mburst/internal/workload"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricName struct{ name, unit string }

// endToEnd lists the end-to-end metrics the untraced run reports, in
// report order with units. Each has a bound in BENCHMARK.json.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"campaign_sim_x", "sim_s/s"},
	{"analyze_samples_per_s", "samples/s"},
	{"ingest_p50_ms.low", "ms"},
	{"ingest_p50_ms.mid", "ms"},
	{"ingest_p50_ms.high", "ms"},
	{"ingest_max_rate_sps", "samples/s"},
	{"resume_s", "s"},
	{"fleet_samples_per_s", "samples/s"},
	{"fleet_merge_ms", "ms"},
}

// tails are end-to-end tail latencies that every run prints but that
// only the traced run reports, without a bound: on a small shared
// machine they move with the host's CPU steal and fsync stalls by more
// than any bound a later change could be held to (see README.md).
var tails = []metricName{
	{"ingest_p99_ms.low", "ms"},
	{"ingest_p99_ms.mid", "ms"},
	{"ingest_p99_ms.high", "ms"},
	{"figures_read_p99_ms", "ms"},
}

// setupRepeats is how many times set-up runs; setup_s is the median.
const setupRepeats = 5

// Work per measured second: every phase does a fixed amount of work,
// scaled by -seconds, so two builds of the program are compared on the
// same work. The rates below make a run last about 1.5 × -seconds on
// 2 CPUs.
const (
	campaignJobsPerSecond  = 2
	fleetRoundsPerSecond   = 3
	ingestBatchesPerSecond = 60 // per agent and offered rate
)

// rounds is how many interleaved rounds the phases are split into.
const rounds = 4

type options struct {
	app     workload.App
	seed    uint64
	seconds float64
	workers int
	work    string // scratch directory inside the checkout
}

// pass is the outcome of one measured run of all phases.
type pass struct {
	values    map[string]float64
	attempted int64
	failed    int64
}

func main() {
	name := flag.String("workload", "", "workload: web, cache or hadoop")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 = also make a traced run and report per-layer metrics")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run writes its scratch data and span dumps under .bench_build in the
// working directory, the checkout root.
func run(name string, seed uint64, seconds float64, traced bool) error {
	app, err := workload.ParseApp(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	out := ".bench_build"
	work := filepath.Join(out, "work-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	opts := options{app: app, seed: seed, seconds: seconds, workers: runtime.NumCPU(), work: work}
	ctx := context.Background()

	opts.work = filepath.Join(work, "untraced")
	base, err := measure(ctx, opts, nil)
	if err != nil {
		return err
	}
	res := result{Correct: true, Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metric{}}
	printed := append(append([]metricName(nil), endToEnd...), tails...)
	for _, m := range printed {
		fmt.Printf("%-24s %14.4f %s\n", m.name, base.values[m.name], m.unit)
	}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{base.values[m.name], m.unit}
		}
	}
	fmt.Printf("%-24s %14.4f failed/attempted (%d/%d)\n", "fail_frac",
		float64(base.failed)/float64(base.attempted), base.failed, base.attempted)

	if traced {
		tr := newTracer()
		opts.work = filepath.Join(work, "traced")
		tp, err := measure(ctx, opts, tr)
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		res.Attempted += tp.attempted
		res.Failed += tp.failed
		layers := perLayer(tr)
		for _, m := range tails {
			layers = append(layers, layerMetric{m.name, tp.values[m.name], m.unit})
		}
		for _, m := range printed {
			ov := 100 * (tp.values[m.name] - base.values[m.name]) / base.values[m.name]
			layers = append(layers, layerMetric{"overhead_pct." + m.name, ov, "%"})
		}
		for _, m := range layers {
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				return fmt.Errorf("traced run measured no %s", m.name)
			}
			fmt.Printf("%-44s %14.4f %s\n", m.name, m.value, m.unit)
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
		dumpDir := filepath.Join(out, "spans")
		if err := os.MkdirAll(dumpDir, 0o755); err != nil {
			return err
		}
		dump := filepath.Join(dumpDir, fmt.Sprintf("%s-seed%d.tsv", name, seed))
		if err := tr.dump(dump); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", dump)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!traced && m.Value <= 0) {
			return fmt.Errorf("measured %v for %s", m.Value, name)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure sets up the inputs and runs every phase once. Any failed
// output check is an error.
func measure(ctx context.Context, o options, tr *tracer) (*pass, error) {
	p := &pass{values: map[string]float64{}}

	var in *inputs
	var setups []float64
	var first [sha256.Size]byte
	for i := 0; i < setupRepeats; i++ {
		in = nil // let the previous set-up's inputs go before the next
		start := time.Now()
		got, err := setup(ctx, o)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		sum := got.digest()
		if i > 0 && sum != first {
			return nil, errors.New("setup: the same seed recorded different inputs")
		}
		first, in = sum, got
	}
	p.values["setup_s"] = median(setups)

	// The phases run interleaved, one share of each per round, so a
	// passing load from outside the benchmark lands in one round of each
	// phase and the per-round medians stay put.
	camp := &campaignResult{}
	ing := newIngestRun(filepath.Join(o.work, "ingest"), in.ingest, perSecond(ingestBatchesPerSecond, o.seconds)/rounds, tr)
	fl, err := newFleetRun(in.fleet, o.workers, tr)
	if err != nil {
		return nil, err
	}
	jobs, fleetRounds := perSecond(campaignJobsPerSecond, o.seconds), perSecond(fleetRoundsPerSecond, o.seconds)
	for r := 0; r < rounds; r++ {
		share := func(total int) int { return (r+1)*total/rounds - r*total/rounds }
		if err := camp.run(ctx, o.app, o.seed, o.workers, share(jobs), filepath.Join(o.work, "campaign"), tr); err != nil {
			return nil, err
		}
		if err := ing.round(); err != nil {
			return nil, err
		}
		if err := fl.replay(share(fleetRounds)); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		if _, _, err := fl.cut(fleetCutsPerRound); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}
	flRes, err := fl.finish()
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	ingRes, err := ing.finish()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "ingest ladder probes (rate:p99:pass): %v\n", ingRes.rungs)

	p.values["campaign_sim_x"] = median(camp.simX)
	p.values["analyze_samples_per_s"] = median(camp.analyzeRate)
	p.attempted += int64(camp.cells)
	for _, lv := range ingestLevels {
		p.values["ingest_p50_ms."+lv.name] = ingRes.p50[lv.name]
		p.values["ingest_p99_ms."+lv.name] = ingRes.p99[lv.name]
	}
	p.values["ingest_max_rate_sps"] = ingRes.maxRate
	p.values["figures_read_p99_ms"] = ingRes.readP99
	p.values["resume_s"] = ingRes.resume
	p.attempted += ingRes.offered
	p.failed += ingRes.offered - ingRes.admitted
	p.values["fleet_samples_per_s"] = median(flRes.rates)
	p.values["fleet_merge_ms"] = flRes.mergeMs
	p.attempted += flRes.batches
	p.failed += flRes.batches - flRes.merged
	tr.observe("shard.placement.skew", flRes.skew)
	tr.observe("collector.aggregator.offer_accept_ratio", float64(flRes.offersTaken)/float64(flRes.offers))

	p.values["peak_rss_mb"] = peakRSS()
	return p, nil
}

// perSecond scales a per-second amount of work to the run, at least 1.
func perSecond(rate, seconds float64) int { return max(1, int(math.Round(rate*seconds))) }

// inputs are the recorded windows the ingest and fleet phases cycle.
type inputs struct {
	ingest []*cycler
	fleet  []*cycler
}

// digest hashes every recorded sample, so repeated set-ups can be
// compared without keeping two copies.
func (in *inputs) digest() [sha256.Size]byte {
	h := sha256.New()
	var buf []byte
	for _, gens := range [][]*cycler{in.ingest, in.fleet} {
		for _, g := range gens {
			buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(g.base)))
			for _, s := range g.base {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Time))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Port)<<32|uint64(s.Dir)<<16|uint64(s.Kind))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Missed)<<32)
				buf = binary.LittleEndian.AppendUint64(buf, s.Value)
				for _, b := range s.Bins {
					buf = binary.LittleEndian.AppendUint64(buf, b)
				}
			}
			h.Write(buf)
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// setup simulates the ingest phase's full-counter racks and the fleet
// phase's 1000 racks.
func setup(ctx context.Context, o options) (*inputs, error) {
	ingestRecs, err := recordRacks(ctx, core.Config{
		Racks: ingestAgents, Windows: 1,
		WindowDur: 40 * simclock.Millisecond, Warmup: 5 * simclock.Millisecond,
		Servers: ingestServers, Seed: o.seed, Workers: o.workers,
	}, o.app, func(*core.Experiment) core.CounterPlan { return core.FullCounters() })
	if err != nil {
		return nil, err
	}
	fleetRecs, err := recordRacks(ctx, core.Config{
		Racks: fleetRacks, Windows: 1,
		WindowDur: fleetWindow, Warmup: fleetWarmup,
		Servers: fleetServers, Seed: o.seed, Workers: o.workers,
	}, o.app, func(e *core.Experiment) core.CounterPlan { return e.RandomPortCounters(o.app) })
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	for _, r := range ingestRecs {
		in.ingest = append(in.ingest, newCycler(r, sampleInterval))
	}
	for _, r := range fleetRecs {
		in.fleet = append(in.fleet, newCycler(r, sampleInterval))
	}
	return in, nil
}

// peakRSS is the process's peak resident set in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
