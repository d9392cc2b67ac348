package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mburst/internal/collector"
	"mburst/internal/topo"
	"mburst/internal/trace"
	"mburst/internal/wire"
)

// The ingest phase is an open-loop live collection: two agents
// (collector.Client over loopback TCP, MBW3) stream one rack's recording
// each into collector.Server → a durable collector.Shard (epoch gate →
// archive → ingest stats → live figures → checkpoint every 256 batches).
// Batches are sent on a fixed schedule at three offered rates, each on a
// fresh collector, and each batch is timed from when it was due to the
// return of Shard.Handle. A dashboard reads LiveFigures.Snapshot on its
// own schedule meanwhile. Each round also resumes its last collector from
// archive and checkpoint, and takes steps up a fixed ladder of rates to
// the highest one the collector absorbs.

const (
	ingestAgents        = 2
	ingestServers       = 32
	ingestBatch         = 1024 // samples per agent batch
	ingestSyncEvery     = 64   // archive fsync cadence in batches
	ingestCheckpoint    = collector.DefaultCheckpointEvery
	dashboardPeriod     = 5 * time.Millisecond
	ladderBase          = 0.25e6 // samples/s, rung 0
	ladderStep          = 1.05   // ratio between rungs
	ladderRungs         = 64
	resumeRepeats       = 3 // per round
	ladderStepsPerRound = 2
)

// An offered rate counts as absorbed when its p99 latency meets
// ingestLimit and its backlog does not grow: the median latency of the
// last fifth of its batches exceeds that of the first fifth by at most
// backlogSlack.
const (
	ingestLimit  = 100 * time.Millisecond
	backlogSlack = 20 * time.Millisecond
)

type ingestLevel struct {
	name string
	rate float64 // offered samples/s, all agents together
}

var ingestLevels = []ingestLevel{{"low", 0.4e6}, {"mid", 0.7e6}, {"high", 1e6}}

// schedule is one run of both agents at one rate. The handler reads it
// through rig.cur while the agents send.
type schedule struct {
	t0     time.Time
	period time.Duration                 // between one agent's batches
	n      int                           // batches per agent
	lat    [ingestAgents][]time.Duration // due → Handle returned
	entry  [ingestAgents][]time.Time     // traced: handler entry
	sent   [ingestAgents][]time.Time     // traced: the sending Emit returned
	flush  [ingestAgents][]time.Duration // traced: the Emit that sent it
	lag    [ingestAgents][]time.Duration // traced: sending Emit start − due
}

func (s *schedule) due(k int) time.Time { return s.t0.Add(time.Duration(k) * s.period) }

func (s *schedule) latencies() []float64 {
	var out []float64
	for r := range s.lat {
		out = append(out, scaled(s.lat[r], time.Millisecond)...)
	}
	return out
}

// rig is one collector process: server, durable shard, archive. It
// serves one schedule.
type rig struct {
	dir   string
	arch  *trace.ArchiveWriter
	sink  *archiveProbe
	figs  *collector.LiveFigures
	stats *collector.IngestStats
	shard *collector.Shard
	srv   *collector.Server
	tr    *tracer

	cur     atomic.Pointer[schedule]
	handled [ingestAgents]atomic.Int64
}

func archiveConfig() trace.ArchiveConfig {
	return trace.ArchiveConfig{Format: wire.FormatMBW3, SyncEvery: ingestSyncEvery}
}

func ingestRack() topo.Rack { return topo.Default(ingestServers) }

func newRig(dir string, tr *tracer) (*rig, error) {
	arch, err := trace.CreateArchive(filepath.Join(dir, "archive"), archiveConfig())
	if err != nil {
		return nil, err
	}
	g := &rig{dir: dir, arch: arch, tr: tr, stats: &collector.IngestStats{}}
	g.sink = &archiveProbe{w: arch, tr: tr, parents: make(map[*wire.Batch]int)}
	g.figs, err = collector.NewLiveFigures(figuresConfig(ingestRack()))
	if err != nil {
		return nil, err
	}
	g.shard, err = collector.NewShard(collector.ShardConfig{
		Figures:        g.figs,
		Stats:          g.stats,
		Archive:        g.sink,
		CheckpointPath: filepath.Join(dir, "checkpoint.json"),
		Every:          ingestCheckpoint,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g.srv = collector.ServeConfigured(ln, g.handle, collector.ServerConfig{})
	return g, nil
}

// handle wraps Shard.Handle with the schedule's latency accounting.
// Each rack has one connection, so one goroutine per rack calls it.
func (g *rig) handle(b *wire.Batch) {
	r := b.Rack
	s := g.cur.Load()
	k := int(g.handled[r].Load())
	var entry time.Time
	h := g.tr.begin("collector.shard.handle", int64(r)<<32|int64(k), -1)
	if g.tr != nil {
		entry = time.Now()
		g.sink.setParent(b, h)
	}
	g.shard.Handle(b)
	done := time.Now()
	if g.tr != nil {
		g.tr.end(h)
		g.sink.setParent(b, -1)
		s.entry[r][k] = entry
	}
	s.lat[r][k] = done.Sub(s.due(k))
	g.handled[r].Add(1)
}

// archiveProbe is the benchmark's wrapper around the collector's
// ArchiveSink: in the traced run it times every write and sync and
// parents them under the Handle call that made them.
type archiveProbe struct {
	w  *trace.ArchiveWriter
	tr *tracer

	mu         sync.Mutex
	parents    map[*wire.Batch]int
	lastParent int
	sinceSync  int
}

func (p *archiveProbe) setParent(b *wire.Batch, h int) {
	p.mu.Lock()
	if h < 0 {
		delete(p.parents, b)
	} else {
		p.parents[b] = h
	}
	p.mu.Unlock()
}

func (p *archiveProbe) WriteBatch(b *wire.Batch) error {
	if p.tr == nil {
		return p.w.WriteBatch(b)
	}
	p.mu.Lock()
	parent, ok := p.parents[b]
	if !ok {
		parent = -1
	}
	p.lastParent = parent
	p.sinceSync++
	syncs := p.sinceSync >= ingestSyncEvery
	if syncs {
		p.sinceSync = 0
	}
	p.mu.Unlock()
	start := time.Now()
	err := p.w.WriteBatch(b)
	end := time.Now()
	p.tr.add("trace.archive.write", 0, parent, start, end)
	if syncs {
		// The writer fsyncs inside this call every SyncEvery batches.
		p.tr.add("trace.archive.sync", 0, parent, start, end)
	}
	return err
}

func (p *archiveProbe) Sync() error {
	if p.tr == nil {
		return p.w.Sync()
	}
	p.mu.Lock()
	parent := p.lastParent
	p.sinceSync = 0
	p.mu.Unlock()
	start := time.Now()
	err := p.w.Sync()
	end := time.Now()
	p.tr.add("trace.archive.sync", 0, parent, start, end)
	p.tr.add("collector.checkpoint.sync", 0, parent, start, end)
	return err
}

func (p *archiveProbe) Batches() uint64 { return p.w.Batches() }

// countingConn counts the bytes an agent writes to its connection.
type countingConn struct {
	net.Conn
	n int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n += int64(n)
	return n, err
}

// agent is one rack's collector.Client streaming its cycled recording.
type agent struct {
	rack    uint32
	conn    *countingConn
	client  *collector.Client
	gen     *cycler
	next    int // next stream sample index
	sent    int64
	scratch []wire.Sample
}

func newAgent(addr string, rack uint32, gen *cycler) (*agent, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: conn}
	client, err := collector.NewClientConfigured(cc, collector.ClientConfig{Rack: rack, MaxBatch: ingestBatch, Format: wire.FormatMBW3})
	if err != nil {
		conn.Close()
		return nil, err
	}
	client.SetEpoch(1)
	return &agent{rack: rack, conn: cc, client: client, gen: gen, scratch: make([]wire.Sample, ingestBatch)}, nil
}

// stream sends the schedule's batches. Each batch is generated and
// buffered in the client ahead of time; the Emit that fills it, which
// encodes and writes it, is made when the batch is due.
func (a *agent) stream(s *schedule, traced bool) error {
	last := len(a.scratch) - 1
	for k := 0; k < s.n; k++ {
		a.gen.fill(a.scratch, a.next)
		a.next += ingestBatch
		for _, smp := range a.scratch[:last] {
			a.client.Emit(smp)
		}
		due := s.due(k)
		sleepUntil(due)
		start := time.Now()
		a.client.Emit(a.scratch[last])
		if traced {
			end := time.Now()
			s.lag[a.rack][k] = start.Sub(due)
			s.sent[a.rack][k] = end
			s.flush[a.rack][k] = end.Sub(start)
		}
		a.sent++
	}
	return a.client.Flush()
}

// sleepUntil blocks the calling thread in the kernel until t. A
// runtime timer would wake the agent up to a millisecond late; nanosleep
// wakes it within tens of µs, so the schedule, not the timer, sets when
// a batch is sent.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
}

// run drives every agent through one schedule of n batches per agent at
// rate samples/s in total, then waits until the collector handled them.
func (g *rig) run(agents []*agent, rate float64, n int) (*schedule, error) {
	s := &schedule{
		period: time.Duration(float64(ingestBatch) * float64(len(agents)) / rate * 1e9),
		n:      n,
	}
	traced := g.tr != nil
	for r := range agents {
		s.lat[r] = make([]time.Duration, n)
		if traced {
			s.entry[r] = make([]time.Time, n)
			s.sent[r] = make([]time.Time, n)
			s.flush[r] = make([]time.Duration, n)
			s.lag[r] = make([]time.Duration, n)
		}
	}
	g.cur.Store(s)
	s.t0 = time.Now().Add(time.Millisecond)
	errs := make([]error, len(agents))
	var wg sync.WaitGroup
	for i, a := range agents {
		wg.Add(1)
		go func(i int, a *agent) {
			defer wg.Done()
			errs[i] = a.stream(s, traced)
		}(i, a)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for r := range agents {
		for g.handled[r].Load() < int64(n) {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("collector handled %d of %d batches from rack %d", g.handled[r].Load(), n, r)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	if traced {
		for r := range agents {
			for k := 0; k < n; k++ {
				wait := s.entry[r][k].Sub(s.sent[r][k])
				g.tr.observe("collector.server.wait_us", float64(wait)/float64(time.Microsecond))
				g.tr.observe("collector.client.flush_us", float64(s.flush[r][k])/float64(time.Microsecond))
				g.tr.observe("gen.lag_ms", float64(s.lag[r][k])/float64(time.Millisecond))
			}
		}
	}
	return s, nil
}

// ingestRun is the ingest phase's state between rounds. Each round
// runs every offered rate in turn, each on a fresh collector; a level's
// p50 and p99 are the medians over rounds of each round's, so a passing
// disturbance from outside the benchmark touches one round, not the
// result.
type ingestRun struct {
	dir      string
	gens     []*cycler
	perRound int // batches per agent and rate in one round
	tr       *tracer

	rounds   int
	p50, p99 map[string][]float64 // ms, per round
	readP99  []float64            // ms, per round
	resumes  []float64            // s
	offered  int64                // batches
	admitted int64                // batches in the archives
	ladder   *ladder
}

type ingestResult struct {
	p50, p99 map[string]float64 // ms per level
	maxRate  float64
	readP99  float64 // ms
	resume   float64 // s
	offered  int64
	admitted int64
	rungs    []string
}

func newIngestRun(dir string, gens []*cycler, perRound int, tr *tracer) *ingestRun {
	return &ingestRun{dir: dir, gens: gens, perRound: perRound, tr: tr,
		p50: map[string][]float64{}, p99: map[string][]float64{},
		ladder: newLadder(filepath.Join(dir, "ladder"), gens)}
}

// round runs every offered rate once, checks each collector, resumes the
// last one, and takes a few steps up the ladder.
func (in *ingestRun) round() error {
	var reads []float64
	var g *rig
	for _, lv := range ingestLevels {
		if g != nil {
			os.RemoveAll(g.dir)
		}
		var agents []*agent
		var err error
		g, agents, err = newRigAgents(filepath.Join(in.dir, fmt.Sprintf("%s%d", lv.name, in.rounds)), in.gens, in.tr)
		if err != nil {
			return err
		}
		s, levelReads, err := g.runWithDashboard(agents, lv.rate, in.perRound)
		if err != nil {
			return fmt.Errorf("ingest %s: %w", lv.name, err)
		}
		reads = append(reads, levelReads...)
		lat := s.latencies()
		in.p50[lv.name] = append(in.p50[lv.name], quantile(lat, 0.50))
		in.p99[lv.name] = append(in.p99[lv.name], quantile(lat, 0.99))
		if err := g.stop(agents); err != nil {
			return err
		}
		admitted := int64(g.arch.Batches())
		var offered, sentBytes, sentSamples int64
		for _, a := range agents {
			offered += a.sent
			sentBytes += a.conn.n
			sentSamples += a.sent * ingestBatch
		}
		in.offered += offered
		in.admitted += admitted
		if err := checkIngest(g, agents, offered, admitted, sentSamples); err != nil {
			return fmt.Errorf("ingest %s: %w", lv.name, err)
		}
		in.tr.observe("wire.bytes_per_sample", float64(sentBytes)/float64(sentSamples))
	}
	in.readP99 = append(in.readP99, quantile(reads, 0.99))
	times, err := resumeRig(g, in.tr)
	if err != nil {
		return err
	}
	in.resumes = append(in.resumes, times...)
	os.RemoveAll(g.dir)
	for i := 0; i < ladderStepsPerRound && !in.ladder.done(); i++ {
		if err := in.ladder.step(); err != nil {
			return err
		}
	}
	in.rounds++
	return nil
}

// finish completes the ladder and reduces the rounds to medians.
func (in *ingestRun) finish() (*ingestResult, error) {
	res := &ingestResult{p50: map[string]float64{}, p99: map[string]float64{},
		readP99: median(in.readP99), resume: median(in.resumes),
		offered: in.offered, admitted: in.admitted}
	for _, lv := range ingestLevels {
		res.p50[lv.name] = median(in.p50[lv.name])
		res.p99[lv.name] = median(in.p99[lv.name])
	}
	var err error
	if res.maxRate, err = in.ladder.rate(); err != nil {
		return nil, err
	}
	res.rungs = in.ladder.log
	return res, nil
}

// newRigAgents starts a collector and connects one agent per recording.
func newRigAgents(dir string, gens []*cycler, tr *tracer) (*rig, []*agent, error) {
	g, err := newRig(dir, tr)
	if err != nil {
		return nil, nil, err
	}
	agents := make([]*agent, len(gens))
	for r, gen := range gens {
		if agents[r], err = newAgent(g.srv.Addr().String(), uint32(r), gen); err != nil {
			g.stop(agents[:r])
			return nil, nil, err
		}
	}
	return g, agents, nil
}

// stop closes the agents, the server and the archive.
func (g *rig) stop(agents []*agent) error {
	var errs []error
	for _, a := range agents {
		errs = append(errs, a.client.Close())
	}
	errs = append(errs, g.srv.Close(), g.arch.Close())
	return errors.Join(errs...)
}

// runWithDashboard runs one schedule while a dashboard reads the live
// figures on its own fixed schedule, and returns the read times in ms.
func (g *rig) runWithDashboard(agents []*agent, rate float64, n int) (*schedule, []float64, error) {
	stop := make(chan struct{})
	var reads []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t0 := time.Now()
		for j := 1; ; j++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Until(t0.Add(time.Duration(j) * dashboardPeriod))):
			}
			h := g.tr.begin("collector.figures.snapshot", int64(j), -1)
			start := time.Now()
			_ = g.figs.Snapshot()
			reads = append(reads, float64(time.Since(start))/float64(time.Millisecond))
			g.tr.end(h)
		}
	}()
	s, err := g.run(agents, rate, n)
	close(stop)
	wg.Wait()
	return s, reads, err
}

// checkIngest verifies the archive holds exactly what the agents sent,
// rack by rack and in order, and that the ingest counters agree.
func checkIngest(g *rig, agents []*agent, offered, admitted, sentSamples int64) error {
	if admitted != offered {
		return fmt.Errorf("archive holds %d batches, agents sent %d", admitted, offered)
	}
	next := make([]int, len(agents))
	err := trace.IterArchive(filepath.Join(g.dir, "archive"), func(b *wire.Batch) error {
		if int(b.Rack) >= len(agents) {
			return fmt.Errorf("archived batch from unknown rack %d", b.Rack)
		}
		gen := agents[b.Rack].gen
		for _, s := range b.Samples {
			if s != gen.at(next[b.Rack]) {
				return fmt.Errorf("rack %d sample %d differs from the one sent", b.Rack, next[b.Rack])
			}
			next[b.Rack]++
		}
		return nil
	})
	if err != nil {
		return err
	}
	snap := g.stats.Snapshot()
	for r, a := range agents {
		if int64(next[r]) != a.sent*ingestBatch {
			return fmt.Errorf("archive holds %d samples of rack %d, agent sent %d", next[r], r, a.sent*ingestBatch)
		}
	}
	if int64(snap.Batches) != offered || int64(snap.Samples) != sentSamples {
		return fmt.Errorf("ingest stats count %d batches / %d samples, agents sent %d / %d",
			snap.Batches, snap.Samples, offered, sentSamples)
	}
	return nil
}

// resumeRig restarts the collector from its archive and last checkpoint
// several times and returns each time to resume. Every resumed state
// must equal the live state at shutdown.
func resumeRig(g *rig, tr *tracer) ([]float64, error) {
	wantFigs := g.figs.State()
	wantStats := g.stats.Snapshot()
	archDir := filepath.Join(g.dir, "archive")
	var times []float64
	for i := 0; i < resumeRepeats; i++ {
		start := time.Now()
		h := tr.begin("trace.archive.recover", int64(i), -1)
		w, _, err := trace.ResumeArchive(archDir, archiveConfig())
		tr.end(h)
		if err != nil {
			return nil, err
		}
		figs, err := collector.NewLiveFigures(figuresConfig(ingestRack()))
		if err != nil {
			return nil, err
		}
		stats := &collector.IngestStats{}
		sh, err := collector.NewShard(collector.ShardConfig{
			Figures: figs, Stats: stats, Archive: w,
			CheckpointPath: filepath.Join(g.dir, "checkpoint.json"),
			Every:          ingestCheckpoint,
		})
		if err != nil {
			return nil, err
		}
		h = tr.begin("collector.shard.resume", int64(i), -1)
		rep, err := sh.Resume(func(fn func(*wire.Batch) error) error { return trace.IterArchive(archDir, fn) })
		tr.end(h)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		tr.observe("collector.shard.replayed_batches", float64(rep.Replayed))
		if !reflect.DeepEqual(figs.State(), wantFigs) {
			return nil, fmt.Errorf("resumed live figures differ from the state at shutdown")
		}
		if !reflect.DeepEqual(stats.Snapshot(), wantStats) {
			return nil, fmt.Errorf("resumed ingest stats differ from the state at shutdown")
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// ladder finds, by bisection over a fixed ladder of rates, the highest
// rung the collector absorbs (see ingestLimit). Each probe runs on a
// fresh collector; a rung that fails is probed once more, so one stall
// of the disk does not end the climb. Steps are spread over the rounds.
type ladder struct {
	dir    string
	gens   []*cycler
	lo, hi int // lo passes (or -1), hi fails (or past the top)
	probes int
	log    []string
}

func newLadder(dir string, gens []*cycler) *ladder {
	return &ladder{dir: dir, gens: gens, lo: -1, hi: ladderRungs}
}

func ladderRate(i int) float64 { return ladderBase * math.Pow(ladderStep, float64(i)) }

func (l *ladder) done() bool { return l.hi-l.lo <= 1 }

// step decides one rung.
func (l *ladder) step() error {
	mid := (l.lo + l.hi) / 2
	var pass bool
	for try := 0; try < 2 && !pass; try++ {
		var p99 float64
		var err error
		pass, p99, err = ladderProbe(filepath.Join(l.dir, fmt.Sprintf("probe%d", l.probes)), l.gens, ladderRate(mid))
		if err != nil {
			return err
		}
		l.probes++
		l.log = append(l.log, fmt.Sprintf("%.2fM:%.2fms:%v", ladderRate(mid)/1e6, p99, pass))
	}
	if pass {
		l.lo = mid
	} else {
		l.hi = mid
	}
	return nil
}

// rate finishes the climb and returns the highest absorbed rate.
func (l *ladder) rate() (float64, error) {
	for !l.done() {
		if err := l.step(); err != nil {
			return 0, err
		}
	}
	if l.lo < 0 {
		return 0, fmt.Errorf("no rung of the ladder meets the %v limit", ingestLimit)
	}
	return ladderRate(l.lo), nil
}

// ladderProbes is the number of batches each agent sends in one probe.
const ladderProbes = 1000

func ladderProbe(dir string, gens []*cycler, rate float64) (bool, float64, error) {
	defer os.RemoveAll(dir)
	g, agents, err := newRigAgents(dir, gens, nil)
	if err != nil {
		return false, 0, err
	}
	s, err := g.run(agents, rate, ladderProbes)
	if stopErr := g.stop(agents); err == nil {
		err = stopErr
	}
	if err != nil {
		return false, 0, err
	}
	p99 := quantile(s.latencies(), 0.99)
	var first, last []float64
	fifth := s.n / 5
	for r := range s.lat {
		first = append(first, scaled(s.lat[r][:fifth], time.Millisecond)...)
		last = append(last, scaled(s.lat[r][s.n-fifth:], time.Millisecond)...)
	}
	growth := median(last) - median(first)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return p99 <= ms(ingestLimit) && growth <= ms(backlogSlack), p99, nil
}
