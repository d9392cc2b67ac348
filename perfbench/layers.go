package main

import (
	"time"

	"mburst/internal/core"
)

// layerMetric is one per-layer metric from the traced run.
type layerMetric struct {
	name  string
	value float64
	unit  string
}

// perLayer reduces the traced run's spans and counts to the per-layer
// metrics, in report order.
func perLayer(tr *tracer) []layerMetric {
	var out []layerMetric
	add := func(name string, v float64, unit string) { out = append(out, layerMetric{name, v, unit}) }
	pcts := func(name string, xs []float64, unit string) {
		add(name+".p50", quantile(xs, 0.50), unit)
		add(name+".p99", quantile(xs, 0.99), unit)
	}
	ms := func(name string) []float64 { return scaled(tr.durations(name), time.Millisecond) }
	us := func(name string) []float64 { return scaled(tr.durations(name), time.Microsecond) }

	// campaign
	pcts("core.runner.cell_ms", ms("core.runner.cell"), "ms")
	add("collector.poller.samples", mean(tr.observed("collector.poller.samples")), "count")
	add("collector.poller.miss_rate", mean(tr.observed("collector.poller.miss_rate")), "ratio")
	add("trace.writer.ms", median(ms("trace.writer.window")), "ms")
	add("trace.writer.bytes_per_sample", median(tr.observed("trace.writer.bytes_per_sample")), "B/sample")
	reads := make(map[int64]time.Duration)
	for _, s := range tr.spans {
		if s.Name == "trace.reader.pass" {
			reads[s.ID] = s.dur()
		}
	}
	var readMs []float64
	for _, d := range reads {
		readMs = append(readMs, float64(d)/float64(time.Millisecond))
	}
	add("trace.reader.ms", median(readMs), "ms")
	for _, kind := range core.AnalyzeKinds {
		var self []float64
		for _, s := range tr.spans {
			if s.Name == "analysis."+kind {
				self = append(self, float64(s.dur()-reads[s.ID])/float64(time.Millisecond))
			}
		}
		add("analysis."+kind+".self_ms", median(self), "ms")
	}

	// ingest
	add("gen.lag_p99_ms", quantile(tr.observed("gen.lag_ms"), 0.99), "ms")
	pcts("collector.client.flush_us", tr.observed("collector.client.flush_us"), "us")
	add("wire.bytes_per_sample", median(tr.observed("wire.bytes_per_sample")), "B/sample")
	pcts("collector.server.wait_us", tr.observed("collector.server.wait_us"), "us")
	pcts("collector.shard.handle_us", us("collector.shard.handle"), "us")
	add("collector.shard.self_us", median(scaled(tr.selfTimes("collector.shard.handle"), time.Microsecond)), "us")
	pcts("trace.archive.write_us", us("trace.archive.write"), "us")
	syncs := ms("trace.archive.sync")
	add("trace.archive.sync_ms", median(syncs), "ms")
	add("trace.archive.syncs", float64(len(syncs)), "count")
	var ckpt []float64
	for _, s := range tr.spans {
		if s.Name == "collector.checkpoint.sync" && s.Parent >= 0 {
			ckpt = append(ckpt, float64(tr.spans[s.Parent].dur())/float64(time.Millisecond))
		}
	}
	add("collector.checkpoint.ms", median(ckpt), "ms")
	add("collector.checkpoint.count", float64(len(ckpt)), "count")
	pcts("collector.figures.snapshot_ms", ms("collector.figures.snapshot"), "ms")
	add("trace.archive.recover_ms", median(ms("trace.archive.recover")), "ms")
	add("collector.shard.resume_ms", median(ms("collector.shard.resume")), "ms")
	add("collector.shard.replayed_batches", median(tr.observed("collector.shard.replayed_batches")), "count")

	// fleet
	add("wire.encode_us", median(us("wire.encode")), "us")
	add("wire.decode_us", median(us("wire.decode")), "us")
	add("collector.shard.lock_wait_us", mean(us("collector.shard.lock_wait")), "us")
	add("shard.placement.skew", median(tr.observed("shard.placement.skew")), "ratio")
	add("collector.shard.volatile_handle_us", median(us("collector.shard.volatile_handle")), "us")
	add("collector.shard.publish_us", median(us("collector.shard.publish")), "us")
	add("collector.aggregator.offer_us", median(us("collector.aggregator.offer")), "us")
	add("collector.aggregator.offer_accept_ratio", median(tr.observed("collector.aggregator.offer_accept_ratio")), "ratio")
	add("collector.aggregator.flush_ms", median(ms("collector.aggregator.flush")), "ms")
	add("collector.aggregator.render_ms", median(ms("collector.aggregator.render")), "ms")
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
