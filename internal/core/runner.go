package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"

	"mburst/internal/collector"
	"mburst/internal/fault"
	"mburst/internal/rng"
	"mburst/internal/simclock"
	"mburst/internal/simnet"
	"mburst/internal/topo"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

// CounterPlan chooses the counters polled for one campaign cell. It is the
// single plan shape shared by byte campaigns, trace recording, the figure
// harnesses and the sweeps; the probe plan(rack, 0, 0) is what
// RecordCampaign persists into trace.Meta.Counters.
type CounterPlan func(rack topo.Rack, rackID, window int) []collector.CounterSpec

// Cell is one unit of campaign work: a single (app, rack, window)
// measurement. Every cell builds its own independently-seeded rack
// simulation, so cells are embarrassingly parallel; the paper's data sets
// (§4.2: 720 two-minute windows per app) are exactly this shape.
type Cell struct {
	// App selects the workload generating the rack's traffic.
	App workload.App
	// RackID / Window locate the cell in the campaign grid and determine
	// its seeds.
	RackID int
	Window int
	// Plan chooses the polled counters (nil is an error).
	Plan CounterPlan
	// Interval is the sampling interval (0 = ByteCampaignInterval).
	Interval simclock.Duration
	// Duration is the recorded duration (0 = Config.WindowDur). Fig 2's
	// continuous run is the one campaign that overrides it.
	Duration simclock.Duration
}

// describe locates the cell in error messages.
func (c Cell) describe() string {
	return fmt.Sprintf("%s/r%d/w%d", c.App, c.RackID, c.Window)
}

// CellRun is the raw outcome of one executed cell, handed to the collect
// callback on the worker goroutine that ran it.
type CellRun struct {
	Cell Cell
	// Net is the cell's rack simulation, positioned after the recorded
	// window (port speeds, drop totals and rack shape are readable).
	Net *simnet.Net
	// Samples are the captured counter samples in emission order.
	Samples []wire.Sample
	// MissRate / CPUBusy are the cell poller's Table 1 statistics.
	MissRate float64
	CPUBusy  float64
	// Faults is the fault schedule injected into this cell's poller (empty
	// when the campaign runs fault-free).
	Faults fault.Schedule
}

// Runner fans campaign cells across a bounded worker pool. Results are
// assembled in deterministic cell order regardless of the worker count, so
// a campaign's output is byte-identical whether it runs serially or on
// every core — the repository's reproducibility guarantee extends to the
// parallel path.
type Runner struct {
	e       *Experiment
	workers int
}

// Runner returns a runner over the experiment's worker pool
// (Config.Workers; 0 = runtime.GOMAXPROCS(0)).
func (e *Experiment) Runner() *Runner {
	w := e.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Runner{e: e, workers: w}
}

// Workers returns the pool's bound.
func (r *Runner) Workers() int { return r.workers }

// Run executes every cell on the pool and calls visit(i, run) on the
// worker goroutine as each cell completes. visit implementations must be
// safe for concurrent calls with distinct indices (writing results[i] is
// the intended shape; shared sinks need their own lock). The first
// cancellation or error stops new cells from starting; already-running
// cells finish and their errors are aggregated.
func (r *Runner) Run(ctx context.Context, cells []Cell, visit func(i int, run *CellRun) error) error {
	if ctx == nil {
		//lint:ignore ctxroot nil-ctx convenience fallback for library callers; no parent to thread
		ctx = context.Background()
	}
	if len(cells) == 0 {
		return ctx.Err()
	}
	workers := r.workers
	if workers > len(cells) {
		workers = len(cells)
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
		cancel()
	}

	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if cctx.Err() != nil {
					continue // drain remaining jobs without running them
				}
				cell := cells[i]
				// Label the worker goroutine while it runs this cell so CPU
				// profiles attribute simulation time to campaign cells.
				labels := pprof.Labels(
					"cell", cell.describe(),
					"app", cell.App.String(),
					"rack", strconv.Itoa(cell.RackID),
				)
				pprof.Do(cctx, labels, func(context.Context) {
					r.e.cellsInFlight.Add(1)
					run, err := r.e.runCell(cell)
					if err == nil {
						err = visit(i, run)
					}
					r.e.cellsInFlight.Add(-1)
					if err != nil {
						fail(fmt.Errorf("core: cell %s: %w", cell.describe(), err))
						return
					}
					r.e.cellsCompleted.Inc()
				})
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: campaign canceled: %w", err)
	}
	return errors.Join(errs...)
}

// RunCells executes every cell on the runner's pool, reduces each raw run
// to its per-cell result via collect (called on the worker goroutine), and
// returns the results in cell order.
func RunCells[T any](ctx context.Context, r *Runner, cells []Cell, collect func(run *CellRun) (T, error)) ([]T, error) {
	out := make([]T, len(cells))
	err := r.Run(ctx, cells, func(i int, run *CellRun) error {
		v, err := collect(run)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// captureCap bounds the sample-slice preallocation for one cell, in
// polls: a very long window must not reserve its whole capture up front.
const captureCap = 1 << 20

// runCell executes one cell: build the rack, warm it up, poll the plan's
// counters for the cell duration, and return the captured samples plus the
// poller's statistics. The poller's randomness derives from the cell
// coordinates (not a shared stream), so every window's jitter stream is
// distinct and the result is a pure function of (Config, Cell).
func (e *Experiment) runCell(c Cell) (*CellRun, error) {
	if c.Plan == nil {
		return nil, errors.New("no counter plan")
	}
	interval := c.Interval
	if interval <= 0 {
		interval = ByteCampaignInterval
	}
	dur := c.Duration
	if dur <= 0 {
		dur = e.cfg.WindowDur
	}
	net, err := e.newNet(c.App, c.RackID, c.Window)
	if err != nil {
		return nil, err
	}
	counters := c.Plan(net.Rack(), c.RackID, c.Window)

	var captured []wire.Sample
	schedule := e.cellFaults(c, dur)
	var pollFault collector.PollFault
	if !schedule.Empty() {
		pollFault = fault.NewPollerInjector(schedule, e.faultM)
	}
	p, err := collector.NewPoller(collector.PollerConfig{
		Interval:      interval,
		Counters:      counters,
		DedicatedCore: true,
		Metrics:       e.pollerM,
		Fault:         pollFault,
	}, net.Switch(), e.pollSource(c, interval), collector.EmitterFunc(func(s wire.Sample) {
		captured = append(captured, s)
	}))
	if err != nil {
		return nil, err
	}
	// Size the capture from the poll cost, not the interval count: a
	// full-counter poll spans several 25 µs intervals, so most interval
	// boundaries never produce a sample.
	n := p.MaxPolls(dur)
	if n > captureCap {
		n = captureCap
	}
	captured = make([]wire.Sample, 0, int(n)*len(counters))
	net.Run(e.cfg.Warmup)
	// Clear the peak register so warmup bursts don't leak into the first
	// recorded sample.
	net.Switch().ReadPeakBufferAndClear()
	p.Install(net.Scheduler())
	net.Run(dur)
	p.Stop()
	e.windows.Inc()
	e.samples.Add(uint64(len(captured)))
	return &CellRun{
		Cell:     c,
		Net:      net,
		Samples:  captured,
		MissRate: p.MissRate(),
		CPUBusy:  p.CPUBusyFrac(),
		Faults:   schedule,
	}, nil
}

// cellFaults derives the fault schedule for one cell. A fixed
// Config.FaultSchedule applies verbatim to every cell; a Config.Faults
// generator draws each cell's schedule from its own seed stream, disjoint
// from the poll-jitter stream, so faulted campaigns stay reproducible.
func (e *Experiment) cellFaults(c Cell, dur simclock.Duration) fault.Schedule {
	switch {
	case e.cfg.FaultSchedule != nil:
		return *e.cfg.FaultSchedule
	case e.cfg.Faults != nil:
		src := rng.New(e.cfg.Seed).Split(fmt.Sprintf("fault/%s/r%d/w%d", c.App, c.RackID, c.Window))
		return fault.Generate(src, *e.cfg.Faults, dur)
	}
	return fault.Schedule{}
}

// pollSource derives the poller's jitter stream for one cell. Including
// the interval keeps cells that differ only in sampling rate (Table 1, the
// interval sweep) on distinct streams.
func (e *Experiment) pollSource(c Cell, interval simclock.Duration) *rng.Source {
	return rng.New(e.cfg.Seed).Split(fmt.Sprintf("poll/%s/r%d/w%d/%d", c.App, c.RackID, c.Window, int64(interval)))
}

// campaignCells builds the standard rack-major campaign grid — for each
// app, every (rack, window) pair in order — the one cell layout every
// figure and recording campaign shares.
func (e *Experiment) campaignCells(apps []workload.App, plan CounterPlan, interval, dur simclock.Duration) []Cell {
	cells := make([]Cell, 0, len(apps)*e.cfg.Racks*e.cfg.Windows)
	for _, app := range apps {
		for rack := 0; rack < e.cfg.Racks; rack++ {
			for w := 0; w < e.cfg.Windows; w++ {
				cells = append(cells, Cell{
					App: app, RackID: rack, Window: w,
					Plan: plan, Interval: interval, Duration: dur,
				})
			}
		}
	}
	return cells
}
