// Command mbreplay streams a recorded campaign (an mbsim trace directory)
// into a collector service as live batches — for exercising mbcollectd
// deployments and dashboards with realistic data. Each recorded window
// restarts virtual time, so its batches carry their own epoch (window
// index + 1) and pass the collector's epoch gate as a new incarnation.
//
// Usage:
//
//	mbreplay -trace DIR -collector 127.0.0.1:9900 [-speedup 100] [-unpaced]
//	         [-maxgap 100ms] [-wire mbw2|mbw3]
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mburst/internal/replay"
	"mburst/internal/wire"
)

func main() {
	dir := flag.String("trace", "", "trace directory (required)")
	collectorAddr := flag.String("collector", "127.0.0.1:9900", "mbcollectd address")
	speedup := flag.Float64("speedup", 100, "virtual-to-wall-clock speedup")
	unpaced := flag.Bool("unpaced", false, "stream as fast as the transport accepts")
	maxGap := flag.Duration("maxgap", 0, "cap any single pacing sleep (0 = replay gaps verbatim); useful for traces recorded under faults")
	wireFmt := flag.String("wire", "", "wire format for the outgoing stream (mbw2, mbw3; default mbw2). mbw1 is refused: it cannot carry the per-window epoch the collector's gate needs")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "mbreplay: -trace is required")
		os.Exit(2)
	}
	var format wire.Format
	if *wireFmt != "" {
		var err error
		if format, err = wire.ParseFormat(*wireFmt); err != nil {
			fmt.Fprintf(os.Stderr, "mbreplay: %v\n", err)
			os.Exit(2)
		}
	}
	conn, err := net.DialTimeout("tcp", *collectorAddr, 5*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mbreplay: %v\n", err)
		os.Exit(1)
	}
	defer conn.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	st, err := replay.Run(ctx, *dir, conn, replay.Options{Speedup: *speedup, Unpaced: *unpaced, MaxGap: *maxGap, Format: format})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mbreplay: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("mbreplay: %d windows, %d batches, %d samples (%v of virtual time, %d gap clamps) in %v\n",
		st.Windows, st.Batches, st.Samples, st.VirtualSpan, st.GapClamps, time.Since(start).Round(time.Millisecond))
}
