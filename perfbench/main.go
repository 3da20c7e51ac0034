package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// A run repeats its set-up at least setupMinReps times and until the
// set-ups took setupMinTime together; setup_s is the median. A set-up of a
// few milliseconds (solve-halo-4k's) spreads by a third between
// repetitions on a shared host, so it repeats ~100 times; serve-mix's,
// near 0.1 s, 21 times. Between set-ups the speed probe takes a sample
// every setupSampleEvery, for the host's speed during the set-ups.
const (
	setupMinReps     = 21
	setupMinTime     = 1500 * time.Millisecond
	setupSampleEvery = 100 * time.Millisecond
)

// moreSetups reports whether a run that has done the set-ups, taking the
// given seconds each, must do another.
func moreSetups(setups []float64) bool {
	var total float64
	for _, s := range setups {
		total += s
	}
	return len(setups) < setupMinReps || total < setupMinTime.Seconds()
}

// wireReps repeats the wire timings of each solve instance.
const wireReps = 5

type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	outDir   string
}

func main() {
	processStart := time.Now()
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0: timed pass, end-to-end metrics; 1: add the traced pass, per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "runs"), "where a run writes its trace dump and serve-mix's answer spool")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.traced = trace == 1
	if err := run(cfg, processStart); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string { return []string{serveWorkload, haloWorkload} }

func run(cfg config, processStart time.Time) error {
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	ctx := context.Background()
	rep := newReport(cfg.workload)
	rep.printf("perfbench %s seed=%d seconds=%d trace=%v", cfg.workload, cfg.seed, cfg.seconds, cfg.traced)
	var err error
	switch {
	case cfg.workload == serveWorkload:
		err = runServe(ctx, rep, cfg, processStart)
	case cfg.workload == haloWorkload:
		err = runSolve(ctx, rep, cfg, processStart)
	default:
		return fmt.Errorf("unknown --workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	if err != nil {
		return err
	}
	if cfg.traced {
		if err := writeTraces(cfg, rep.traces); err != nil {
			return err
		}
	}
	w := bufio.NewWriter(os.Stdout)
	if err := rep.write(w, cfg.traced); err != nil {
		return err
	}
	return w.Flush()
}

// writeTraces writes the traced pass's records, one JSON object per line.
func writeTraces(cfg config, records []any) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
