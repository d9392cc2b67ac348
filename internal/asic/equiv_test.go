package asic

import (
	"fmt"
	"math"
	"testing"

	"mburst/internal/rng"
	"mburst/internal/simclock"
)

// refCounters and refAdd are the per-tick charge formula as it stood
// before dirCounters memoised its increments: every call recomputes
// nbytes*frac/representativeSize[i] for each non-zero bin and truncates
// through uint64.
type refCounters struct {
	bytes   uint64
	packets uint64
	bins    [NumSizeBins]uint64
	binRem  [NumSizeBins]float64
}

func (c *refCounters) add(nbytes float64, profile TrafficProfile) {
	if nbytes <= 0 {
		return
	}
	c.bytes += uint64(nbytes + 0.5)
	for i, frac := range profile {
		if frac == 0 {
			continue
		}
		pkts := nbytes*frac/representativeSize[i] + c.binRem[i]
		whole := uint64(pkts)
		c.binRem[i] = pkts - float64(whole)
		c.bins[i] += whole
		c.packets += whole
	}
}

type refPort struct {
	speed             uint64
	rx, tx            refCounters
	txDrops, ecnMarks uint64
	dropRem, ecnRem   float64
	queue, lastOffer  float64
	lastProfil        TrafficProfile
}

// refSwitch is the data path before the tick skipped idle ports and
// memoised charges: it visits every port on every tick and recomputes
// line bytes from the port speed.
type refSwitch struct {
	cfg        Config
	ports      []refPort
	bufferUsed float64
	peakUsed   float64
}

func newRefSwitch(cfg Config) *refSwitch {
	s := &refSwitch{cfg: cfg, ports: make([]refPort, len(cfg.PortSpeeds))}
	for i := range s.ports {
		s.ports[i].speed = cfg.PortSpeeds[i]
	}
	return s
}

func (s *refSwitch) OfferRx(id int, nbytes float64, profile TrafficProfile) {
	s.ports[id].rx.add(nbytes, profile)
}

func (s *refSwitch) OfferTx(id int, nbytes float64, profile TrafficProfile) {
	if nbytes == 0 {
		return
	}
	p := &s.ports[id]
	if p.lastOffer == 0 {
		p.lastProfil = profile
	} else {
		total := p.lastOffer + nbytes
		for i := range p.lastProfil {
			p.lastProfil[i] = (p.lastProfil[i]*p.lastOffer + profile[i]*nbytes) / total
		}
	}
	p.lastOffer += nbytes
}

func (s *refSwitch) Tick(d simclock.Duration) {
	seconds := d.Seconds()
	for i := range s.ports {
		p := &s.ports[i]
		lineBytes := float64(p.speed) / 8 * seconds
		offered := p.lastOffer
		avail := p.queue + offered
		transmit := avail
		if transmit > lineBytes {
			transmit = lineBytes
		}
		if transmit > 0 {
			p.tx.add(transmit, p.lastProfil)
		}
		leftover := avail - transmit
		var dropBytes float64
		drained := p.queue - leftover
		if drained > 0 {
			s.bufferUsed -= drained
			if s.bufferUsed < 0 {
				s.bufferUsed = 0
			}
			p.queue = leftover
		} else if leftover > p.queue {
			free := s.cfg.BufferBytes - s.bufferUsed
			if free < 0 {
				free = 0
			}
			limit := s.cfg.Alpha * free
			growth := leftover - p.queue
			room := limit - p.queue
			if room < 0 {
				room = 0
			}
			admitted := growth
			if admitted > room {
				admitted = room
			}
			if admitted > free {
				admitted = free
			}
			dropBytes = growth - admitted
			p.queue += admitted
			s.bufferUsed += admitted
			if dropBytes > 0 {
				mean := p.lastProfil.MeanPacketSize()
				if mean <= 0 {
					mean = 1500
				}
				pkts := dropBytes/mean + p.dropRem
				whole := uint64(pkts)
				p.dropRem = pkts - float64(whole)
				p.txDrops += whole
			}
		}
		if s.cfg.ECNThresholdBytes > 0 && p.queue > s.cfg.ECNThresholdBytes {
			if markBytes := offered - dropBytes; markBytes > 0 {
				mean := p.lastProfil.MeanPacketSize()
				if mean <= 0 {
					mean = 1500
				}
				pkts := markBytes/mean + p.ecnRem
				whole := uint64(pkts)
				p.ecnRem = pkts - float64(whole)
				p.ecnMarks += whole
			}
		}
		p.lastOffer = 0
	}
	if s.bufferUsed > s.peakUsed {
		s.peakUsed = s.bufferUsed
	}
}

// diffCounters describes the first field where the memoised block and
// the reference disagree; remainders must match bit for bit.
func diffCounters(got *dirCounters, want *refCounters) string {
	switch {
	case got.bytes != want.bytes:
		return fmt.Sprintf("bytes %d, want %d", got.bytes, want.bytes)
	case got.packets != want.packets:
		return fmt.Sprintf("packets %d, want %d", got.packets, want.packets)
	case got.bins != want.bins:
		return fmt.Sprintf("bins %v, want %v", got.bins, want.bins)
	}
	for i := range got.binRem {
		if math.Float64bits(got.binRem[i]) != math.Float64bits(want.binRem[i]) {
			return fmt.Sprintf("binRem[%d] %v, want %v", i, got.binRem[i], want.binRem[i])
		}
	}
	return ""
}

func diffSwitch(got *Switch, want *refSwitch) string {
	bits := math.Float64bits
	for i := range got.ports {
		g, w := &got.ports[i], &want.ports[i]
		if d := diffCounters(&g.rx, &w.rx); d != "" {
			return fmt.Sprintf("port %d rx: %s", i, d)
		}
		if d := diffCounters(&g.tx, &w.tx); d != "" {
			return fmt.Sprintf("port %d tx: %s", i, d)
		}
		switch {
		case g.txDrops != w.txDrops || bits(g.dropRem) != bits(w.dropRem):
			return fmt.Sprintf("port %d drops %d+%v, want %d+%v", i, g.txDrops, g.dropRem, w.txDrops, w.dropRem)
		case g.ecnMarks != w.ecnMarks || bits(g.ecnRem) != bits(w.ecnRem):
			return fmt.Sprintf("port %d ecn %d+%v, want %d+%v", i, g.ecnMarks, g.ecnRem, w.ecnMarks, w.ecnRem)
		case bits(g.queue) != bits(w.queue):
			return fmt.Sprintf("port %d queue %v, want %v", i, g.queue, w.queue)
		}
	}
	if bits(got.bufferUsed) != bits(want.bufferUsed) || bits(got.peakUsed) != bits(want.peakUsed) {
		return fmt.Sprintf("buffer %v peak %v, want %v peak %v", got.bufferUsed, got.peakUsed, want.bufferUsed, want.peakUsed)
	}
	return ""
}

// randomProfile draws a valid profile; about a third of its bins are
// empty so the zero-fraction path is exercised.
func randomProfile(src *rng.Source) TrafficProfile {
	var p TrafficProfile
	var total float64
	for i := range p {
		if src.Bool(0.35) {
			continue
		}
		p[i] = src.Float64()
		total += p[i]
	}
	if total == 0 {
		p[NumSizeBins-1] = 1
		return p
	}
	for i := range p {
		p[i] /= total
	}
	return p
}

// TestChargeMatchesReference drives one counter block through seeded
// charge sequences — long runs of identical charges, runs with only
// nbytes or only the profile changing, and empty bins — and requires the
// memoised block to equal the reference formula after every call.
func TestChargeMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		src := rng.New(seed)
		var got dirCounters
		var want refCounters
		nbytes := 1 + src.Float64()*20000
		profile := randomProfile(src)
		for call := 0; call < 5000; call++ {
			switch r := src.Float64(); {
			case r < 0.05:
				nbytes = src.Float64() * 20000
			case r < 0.08:
				profile = randomProfile(src)
			case r < 0.10:
				nbytes = src.Float64() * 100
				profile = randomProfile(src)
			case r < 0.11:
				nbytes = 0
			}
			got.add(nbytes, &profile)
			want.add(nbytes, profile)
			if d := diffCounters(&got, &want); d != "" {
				t.Fatalf("seed %d call %d (nbytes %v, profile %v): %s", seed, call, nbytes, profile, d)
			}
		}
	}
}

// TestSwitchMatchesReference runs the switch and the reference data path
// side by side on seeded offer sequences: steady per-port offers that
// change now and then, several OfferTx blended into one port per tick,
// ports falling idle and draining, overloads deep enough to drop, and
// ECN marking. Every port's counters, remainders and queue bits must
// agree after every tick.
func TestSwitchMatchesReference(t *testing.T) {
	const nports = 12
	speeds := make([]uint64, nports)
	for i := range speeds {
		speeds[i] = gbps10
		if i >= nports-3 {
			speeds[i] = gbps40
		}
	}
	for seed := uint64(1); seed <= 10; seed++ {
		cfg := Config{
			PortSpeeds:  speeds,
			BufferBytes: 256 << 10,
			Alpha:       1,
		}
		if seed%2 == 0 {
			cfg.ECNThresholdBytes = 16 << 10
		}
		sw, ref := New(cfg), newRefSwitch(cfg)
		src := rng.New(seed)
		type stream struct {
			nbytes  float64
			profile TrafficProfile
		}
		streams := make([][]stream, nports)
		for tick := 0; tick < 4000; tick++ {
			for p := range streams {
				// Flow events: a port gains, loses or changes a stream.
				if src.Bool(0.02) {
					switch {
					case len(streams[p]) > 0 && src.Bool(0.4):
						streams[p] = streams[p][:len(streams[p])-1]
					case len(streams[p]) < 3:
						streams[p] = append(streams[p], stream{
							nbytes:  src.Float64() * 1.5 * float64(speeds[p]) / 8 * 5e-6,
							profile: randomProfile(src),
						})
					}
				}
				for _, s := range streams[p] {
					sw.OfferTx(p, s.nbytes, s.profile)
					ref.OfferTx(p, s.nbytes, s.profile)
					sw.OfferRx((p+1)%nports, s.nbytes, s.profile)
					ref.OfferRx((p+1)%nports, s.nbytes, s.profile)
				}
			}
			d := 5 * simclock.Microsecond
			if src.Bool(0.01) {
				d = simclock.Duration(1 + src.Intn(5000)) // a partial final tick
			}
			sw.Tick(d)
			ref.Tick(d)
			if diff := diffSwitch(sw, ref); diff != "" {
				t.Fatalf("seed %d tick %d: %s", seed, tick, diff)
			}
		}
		var drops, marks uint64
		for i := range ref.ports {
			drops += ref.ports[i].txDrops
			marks += ref.ports[i].ecnMarks
		}
		if drops == 0 || (cfg.ECNThresholdBytes > 0 && marks == 0) {
			t.Errorf("seed %d: sequence never dropped (%d) or marked (%d)", seed, drops, marks)
		}
	}
}
