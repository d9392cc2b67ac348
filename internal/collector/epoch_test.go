package collector

import (
	"net"
	"testing"

	"mburst/internal/obs"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

func epochBatch(rack, epoch uint32, times ...int64) *wire.Batch {
	b := &wire.Batch{Rack: rack, Epoch: epoch}
	for _, t := range times {
		b.Samples = append(b.Samples, wire.Sample{Time: simclock.Time(t), Value: uint64(t)})
	}
	return b
}

func TestEpochGateOrdering(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewServerMetrics(reg)
	sink := &MemSink{}
	g := NewEpochGate(sink.Handle, m)

	accept := func(b *wire.Batch, want bool, what string) {
		t.Helper()
		before := len(sink.Samples())
		g.Handle(b)
		got := len(sink.Samples()) > before
		if got != want {
			t.Fatalf("%s: accepted=%v, want %v", what, got, want)
		}
	}

	accept(epochBatch(1, 0, 100, 200), true, "first epoch-0 batch")
	accept(epochBatch(1, 0, 300, 400), true, "in-order same-epoch batch")
	accept(epochBatch(1, 0, 300, 400), false, "duplicate batch")
	accept(epochBatch(1, 0, 150), false, "time-regressing batch")
	// Restart: epoch bumps, time legitimately restarts from zero.
	accept(epochBatch(1, 1, 50), true, "first batch of new epoch")
	accept(epochBatch(1, 0, 500), false, "stale-epoch straggler")
	accept(epochBatch(1, 1, 60), true, "new epoch continues")
	// Other racks are independent.
	accept(epochBatch(2, 0, 10), true, "rack 2 unaffected")

	if got := m.EpochRestarts.Value(); got != 1 {
		t.Errorf("EpochRestarts = %d, want 1", got)
	}
	if got := m.StaleBatches.Value(); got != 1 {
		t.Errorf("StaleBatches = %d, want 1", got)
	}
	if got := m.ReorderedBatches.Value(); got != 2 {
		t.Errorf("ReorderedBatches = %d, want 2", got)
	}
}

func TestEpochGateEmptyBatches(t *testing.T) {
	sink := &MemSink{}
	g := NewEpochGate(sink.Handle, nil)
	g.Handle(epochBatch(1, 0))      // empty, accepted, no horizon change
	g.Handle(epochBatch(1, 0, 100)) // fine
	g.Handle(epochBatch(1, 0))      // empty again
	g.Handle(epochBatch(1, 0, 50))  // regresses -> dropped
	g.Handle(epochBatch(1, 0, 150)) // fine
	if got := len(sink.Samples()); got != 2 {
		t.Fatalf("delivered %d samples, want 2", got)
	}
}

func TestServerEpochGateEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &MemSink{}
	srv := ServeConfigured(ln, NewEpochGate(sink.Handle, nil).Handle, ServerConfig{})
	defer srv.Close()

	send := func(batches ...*wire.Batch) {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		w := wire.NewWriter(conn)
		for _, b := range batches {
			if err := w.WriteBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		conn.Close()
	}
	// The old incarnation delivers, dies; the new one (epoch 1) takes
	// over; a late retry from the old stream must be discarded.
	send(epochBatch(7, 0, 100, 200))
	waitFor(t, "epoch-0 delivery", func() bool { return len(sink.Samples()) == 2 })
	send(epochBatch(7, 1, 10, 20))
	waitFor(t, "epoch-1 delivery", func() bool { return len(sink.Samples()) == 4 })
	send(epochBatch(7, 0, 300)) // stale straggler
	send(epochBatch(7, 1, 30))  // live stream continues
	waitFor(t, "post-straggler delivery", func() bool { return len(sink.Samples()) == 5 })
	for _, s := range sink.Samples() {
		if s.Value == 300 {
			t.Fatal("stale-epoch straggler was delivered")
		}
	}
}
