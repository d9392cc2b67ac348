package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/fabric"
	"mburst/internal/simclock"
	"mburst/internal/simnet"
	"mburst/internal/topo"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

var updateSimDigest = flag.Bool("update", false, "rewrite testdata/sim_digest.json")

const simDigestPath = "testdata/sim_digest.json"

// digester hashes simulator state as fixed-width little-endian words, so
// any change to a counter, a queue bit or a sample moves the digest.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digester) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

func (d *digester) sample(s wire.Sample) {
	d.u64(uint64(s.Time))
	d.u64(uint64(s.Port))
	d.u64(uint64(s.Dir))
	d.u64(uint64(s.Kind))
	d.u64(uint64(s.Missed))
	d.u64(s.Value)
	for _, b := range s.Bins {
		d.u64(b)
	}
}

// switchState hashes every port's counters in both directions, drops, ECN
// marks and queue bits, then the shared buffer and its peak register
// (which it clears; call it only once the run is over or at checkpoints
// nothing polls).
func (d *digester) switchState(sw *asic.Switch) {
	for i := 0; i < sw.NumPorts(); i++ {
		p := sw.Port(i)
		for _, dir := range []asic.Direction{asic.RX, asic.TX} {
			d.u64(p.Bytes(dir))
			d.u64(p.Packets(dir))
			for _, b := range p.SizeBins(dir) {
				d.u64(b)
			}
		}
		d.u64(p.Drops())
		d.u64(p.ECNMarks())
		d.f64(p.QueueBytes())
	}
	d.f64(sw.BufferUsed())
	d.f64(sw.ReadPeakBufferAndClear())
}

// campaignDigest runs a 2-rack × 2-window, 32-server campaign with the full
// counter plan at 25 µs through the Runner and hashes, in cell order, every
// sample followed by the cell's final switch state.
func campaignDigest(t *testing.T, app workload.App) string {
	t.Helper()
	cfg := QuickConfig()
	cfg.Racks = 2
	cfg.Windows = 2
	cfg.Servers = 32
	cfg.WindowDur = 20 * simclock.Millisecond
	cfg.Warmup = 5 * simclock.Millisecond
	exp, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells := exp.campaignCells([]workload.App{app}, FullCounters(), ByteCampaignInterval, 0)
	digests := make([]string, len(cells))
	err = exp.Runner().Run(context.Background(), cells, func(i int, run *CellRun) error {
		d := newDigester()
		d.u64(uint64(len(run.Samples)))
		for _, s := range run.Samples {
			d.sample(s)
		}
		d.switchState(run.Net.Switch())
		digests[i] = d.sum()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d := newDigester()
	for _, s := range digests {
		d.h.Write([]byte(s))
	}
	return d.sum()
}

// rackDigest runs one ECN-enabled, flowlet-balanced hadoop rack and hashes
// its switch state every millisecond.
func rackDigest(t *testing.T) string {
	t.Helper()
	net, err := simnet.New(simnet.Config{
		Rack:              topo.Default(32),
		Params:            workload.DefaultParams(workload.Hadoop),
		Seed:              7,
		Balancer:          simnet.BalanceFlowlet,
		ECNThresholdBytes: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := newDigester()
	for ms := 0; ms < 30; ms++ {
		net.Run(simclock.Millisecond)
		d.switchState(net.Switch())
	}
	return d.sum()
}

// fabricDigest runs a 4-rack cluster under the fabric tier — the one
// caller that blends several OfferTx per port per tick — and hashes every
// rack and fabric switch every millisecond.
func fabricDigest(t *testing.T) string {
	t.Helper()
	var cfg fabric.Config
	for r, app := range []workload.App{workload.Hadoop, workload.Cache, workload.Web, workload.Hadoop} {
		cfg.RackConfigs = append(cfg.RackConfigs, simnet.Config{
			Rack:   topo.Default(16),
			Params: workload.DefaultParams(app),
			Seed:   uint64(100 + r),
			RackID: r,
		})
	}
	c, err := fabric.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigester()
	for ms := 0; ms < 20; ms++ {
		c.Run(simclock.Millisecond)
		for r := 0; r < c.NumRacks(); r++ {
			d.switchState(c.Rack(r).Switch())
		}
		for f := 0; f < c.NumFabrics(); f++ {
			d.switchState(c.Fabric(f))
		}
	}
	return d.sum()
}

// TestSimulatorDigest pins the simulator's output bit for bit: campaign
// samples and final counters for every app, an ECN + flowlet rack, and the
// fabric tier's blended offers. A change that reorders a float operation
// anywhere in the tick path moves a digest. Re-bless with
//
//	go test ./internal/core -run TestSimulatorDigest -update
//
// and say in CHANGES.md which digests moved and why.
func TestSimulatorDigest(t *testing.T) {
	runs := map[string]func(*testing.T) string{
		"campaign/web":       func(t *testing.T) string { return campaignDigest(t, workload.Web) },
		"campaign/cache":     func(t *testing.T) string { return campaignDigest(t, workload.Cache) },
		"campaign/hadoop":    func(t *testing.T) string { return campaignDigest(t, workload.Hadoop) },
		"simnet/ecn-flowlet": rackDigest,
		"fabric/4rack":       fabricDigest,
	}
	got := make(map[string]string, len(runs))
	var mu sync.Mutex
	t.Run("group", func(t *testing.T) {
		for name, run := range runs {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				sum := run(t)
				mu.Lock()
				got[name] = sum
				mu.Unlock()
			})
		}
	})
	if t.Failed() {
		return
	}

	if *updateSimDigest {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(simDigestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(simDigestPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(simDigestPath)
	if err != nil {
		t.Fatalf("%v (bless with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name := range runs {
		if want[name] == "" {
			t.Errorf("%s: no blessed digest in %s", name, simDigestPath)
		} else if got[name] != want[name] {
			t.Errorf("%s: digest %s, blessed %s", name, got[name], want[name])
		}
	}
	for name := range want {
		if _, ok := runs[name]; !ok {
			t.Errorf("%s: blessed digest has no run", name)
		}
	}
}
