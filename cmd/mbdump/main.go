// Command mbdump inspects a segmented archive directory written by
// mbcollectd -archive, or a fleet campaign directory written by mbfleet
// -out: per-batch summaries, per-counter totals, and optionally the
// first samples decoded.
//
// Usage:
//
//	mbdump -in /var/lib/mburst/archive [-samples 10] [-quiet]
//	mbdump -in /var/lib/mburst/fleet   # fleet campaign directory
//
// An archive directory is decoded through its manifest in segment order
// (the collector's admission order). A fleet directory (one holding a
// fleet.json manifest) is decoded through every shard archive and
// presented as one merged admission-order stream — racks ascending,
// each rack's batches in its owning shard's admission order — so a
// sharded campaign reads exactly like a single-collector one. Any other
// input is refused. Run mbcollectd -resume (or trace.RecoverArchive)
// first if a directory crashed mid-write; mbdump treats a torn tail as
// an error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mburst/internal/analysis"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
)

func main() {
	in := flag.String("in", "", "archive directory or fleet campaign directory to inspect (required)")
	showSamples := flag.Int("samples", 0, "print the first N samples decoded")
	quiet := flag.Bool("quiet", false, "suppress per-batch lines, print only totals")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "mbdump: -in is required")
		os.Exit(2)
	}
	if err := run(os.Stdout, *in, *showSamples, *quiet); err != nil {
		fmt.Fprintf(os.Stderr, "mbdump: %v\n", err)
		os.Exit(1)
	}
}

// run decodes the input and writes the report to w. Split from main so
// the golden test drives the exact production path.
func run(w io.Writer, in string, showSamples int, quiet bool) error {
	var (
		batches, samples int
		printed          int
		perSeries        = map[analysis.SeriesKey]int{}
		firstT, lastT    simclock.Time
		seen             bool
	)
	dump := func(b *wire.Batch) {
		batches++
		samples += len(b.Samples)
		if !quiet {
			var span simclock.Duration
			if n := len(b.Samples); n > 0 {
				span = b.Samples[n-1].Time.Sub(b.Samples[0].Time)
			}
			fmt.Fprintf(w, "batch %4d: rack %d, %5d samples, %v of virtual time\n",
				batches, b.Rack, len(b.Samples), span)
		}
		for _, s := range b.Samples {
			if !seen || s.Time < firstT {
				firstT = s.Time
			}
			if !seen || s.Time > lastT {
				lastT = s.Time
			}
			seen = true
			perSeries[analysis.SeriesKey{Port: s.Port, Dir: s.Dir, Kind: s.Kind}]++
			if printed < showSamples {
				printed++
				fmt.Fprintf(w, "  sample t=%v port=%d %s/%s value=%d missed=%d\n",
					s.Time, s.Port, s.Dir, s.Kind, s.Value, s.Missed)
			}
		}
	}

	fi, err := os.Stat(in)
	if err != nil {
		return err
	}
	if !fi.IsDir() {
		return fmt.Errorf("%s is not a directory: -in takes a segmented archive directory (mbcollectd -archive) or a fleet campaign directory (mbfleet -out)", in)
	}
	iter := trace.IterArchive
	if man, ok, err := trace.ReadFleetManifest(in); err != nil {
		return err
	} else if ok {
		iter = trace.IterFleet
		if !quiet {
			fmt.Fprintf(w, "fleet: %d racks over %d shards, placement v%d seed %d\n",
				man.Racks, len(man.Shards), man.Placement.Version, man.Placement.Seed)
		}
	}
	if err := iter(in, func(b *wire.Batch) error {
		dump(b)
		return nil
	}); err != nil {
		return fmt.Errorf("after %d batches: %w", batches, err)
	}

	fmt.Fprintf(w, "\ntotal: %d batches, %d samples", batches, samples)
	if seen {
		fmt.Fprintf(w, ", virtual span %v", lastT.Sub(firstT))
	}
	fmt.Fprintln(w)
	for _, k := range analysis.SortedKeys(perSeries) {
		fmt.Fprintf(w, "  %-28s %d samples\n", k.String(), perSeries[k])
	}
	return nil
}
