// Command perfgate compares serve-benchmark reports against a committed
// baseline and exits nonzero on regression. It is the CI half of the serving
// perf gate: benchexp -exp serve produces the reports, perfgate enforces
// that throughput and tail latency stay within tolerance of the baseline.
//
//	perfgate -baseline BENCH_serve_ci.json current1.json [current2.json ...]
//
// Several current reports may be given; the gate scores each concurrency
// level on the best observation across them (highest QPS, lowest p99).
// Short benchmark runs on shared machines are noisy in one direction —
// interference makes a run slower, never faster — so best-of-N measures the
// machine's capability while a single run measures its worst moment. A real
// regression shows up in every run; noise does not survive the max.
//
// A level regresses when best QPS falls below (1-tol)×baseline, or best p99
// rises above (1+tol)×baseline plus an absolute floor. The floor keeps
// sub-millisecond baselines from turning scheduler jitter into failures: 20%
// of 2ms is noise, 20% of 200ms is a regression.
//
// With -ingest-baseline the gate instead compares bulk-ingest reports
// (benchexp -exp ingest): for each (engine, workers) level in the baseline,
// the best elements/sec across the current reports must stay above
// (1-tol)×baseline. Peak RSS is reported but not gated — it depends on GC
// timing and the runner's memory pressure.
//
//	perfgate -ingest-baseline BENCH_ingest_ci.json current.json [...]
//
// With -watch-baseline the gate compares watch reports (benchexp -exp
// watch): for each subscriber level in the baseline, the best delta
// propagation p99 across the current reports must stay below
// (1+tol)×baseline plus the p99 floor, and the current run must not have
// degraded to snapshot resyncs or decode errors when the baseline had none.
// Maintenance speedups are reported but not gated — they depend on dataset
// scale, and CI runs at small scale where full re-execution is cheap.
//
//	perfgate -watch-baseline BENCH_watch_ci.json current.json [...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"xpath2sql/internal/bench"
	"xpath2sql/internal/serveload"
)

func main() {
	baseline := flag.String("baseline", "BENCH_serve_ci.json", "committed baseline serve report")
	ingestBaseline := flag.String("ingest-baseline", "", "committed baseline ingest report; when set, gate ingest throughput instead of serve")
	watchBaseline := flag.String("watch-baseline", "", "committed baseline watch report; when set, gate delta propagation p99 instead of serve")
	tol := flag.Float64("tol", 0.20, "relative tolerance for QPS and p99 (serve) or elements/sec (ingest)")
	floor := flag.Float64("floor-ms", 2, "absolute p99 slack in milliseconds, added on top of the relative tolerance")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: perfgate [-baseline FILE | -ingest-baseline FILE] current.json [current.json ...]")
		os.Exit(2)
	}

	if *ingestBaseline != "" {
		gateIngest(*ingestBaseline, flag.Args(), *tol)
		return
	}
	if *watchBaseline != "" {
		gateWatch(*watchBaseline, flag.Args(), *tol, *floor)
		return
	}

	base, err := readReport(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: baseline: %v\n", err)
		os.Exit(2)
	}
	var curs []*serveload.ServeReport
	for _, path := range flag.Args() {
		r, err := readReport(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
			os.Exit(2)
		}
		curs = append(curs, r)
	}

	violations, summary := gate(base, curs, *tol, *floor)
	for _, line := range summary {
		fmt.Println(line)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "REGRESSION: %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Printf("perfgate: ok (%d levels within %.0f%% of %s)\n", len(base.Levels), *tol*100, *baseline)
}

// gateIngest compares ingest reports against the committed baseline and
// exits: 0 when every baseline (engine, workers) level keeps best
// elements/sec within tolerance, 1 on regression, 2 on bad input.
func gateIngest(baselinePath string, curPaths []string, tol float64) {
	base, err := readIngestReport(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: baseline: %v\n", err)
		os.Exit(2)
	}
	var curs []*bench.IngestReport
	for _, path := range curPaths {
		r, err := readIngestReport(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
			os.Exit(2)
		}
		curs = append(curs, r)
	}

	violations, summary := ingestGate(base, curs, tol)
	for _, line := range summary {
		fmt.Println(line)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "REGRESSION: %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Printf("perfgate: ok (%d ingest levels within %.0f%% of %s)\n", len(base.Runs), tol*100, baselinePath)
}

// ingestGate scores every baseline (engine, workers) level on the best
// elements/sec across the current reports and returns the violations plus a
// summary table. Peak RSS is reported (best = lowest) but never gated.
func ingestGate(base *bench.IngestReport, curs []*bench.IngestReport, tol float64) (violations, summary []string) {
	summary = append(summary, fmt.Sprintf("%-8s %-8s %14s %14s %10s %10s",
		"engine", "workers", "base elems/s", "best elems/s", "base rss", "best rss"))
	for _, bl := range base.Runs {
		bestEPS, bestRSS := 0.0, 0.0
		seen := false
		for _, cur := range curs {
			for _, cl := range cur.Runs {
				if cl.Engine != bl.Engine || cl.Workers != bl.Workers {
					continue
				}
				if !seen || cl.ElemsPerSec > bestEPS {
					bestEPS = cl.ElemsPerSec
				}
				if !seen || cl.PeakRSSMB < bestRSS {
					bestRSS = cl.PeakRSSMB
				}
				seen = true
			}
		}
		if !seen {
			violations = append(violations, fmt.Sprintf("%s w=%d: missing from current reports", bl.Engine, bl.Workers))
			continue
		}
		summary = append(summary, fmt.Sprintf("%-8s %-8d %14.0f %14.0f %8.0fMB %8.0fMB",
			bl.Engine, bl.Workers, bl.ElemsPerSec, bestEPS, bl.PeakRSSMB, bestRSS))
		if minEPS := bl.ElemsPerSec * (1 - tol); bestEPS < minEPS {
			violations = append(violations, fmt.Sprintf("%s w=%d: %.0f elems/s < %.0f (baseline %.0f - %.0f%%)",
				bl.Engine, bl.Workers, bestEPS, minEPS, bl.ElemsPerSec, tol*100))
		}
	}
	return violations, summary
}

// gateWatch compares watch reports against the committed baseline and
// exits: 0 when every baseline subscriber level keeps best propagation p99
// within tolerance and clean delivery, 1 on regression, 2 on bad input.
func gateWatch(baselinePath string, curPaths []string, tol, floorMS float64) {
	base, err := readWatchReport(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: baseline: %v\n", err)
		os.Exit(2)
	}
	var curs []*serveload.WatchReport
	for _, path := range curPaths {
		r, err := readWatchReport(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
			os.Exit(2)
		}
		curs = append(curs, r)
	}

	violations, summary := watchGate(base, curs, tol, floorMS)
	for _, line := range summary {
		fmt.Println(line)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "REGRESSION: %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Printf("perfgate: ok (%d watch levels within %.0f%% of %s)\n", len(base.Propagation), tol*100, baselinePath)
}

// watchGate scores every baseline subscriber level on the best (lowest)
// propagation p99 across the current reports. A level also regresses when
// the current run needed resyncs or hit decode errors while the baseline
// delivered cleanly — that is the bounded-buffer degradation path firing
// under a load it used to absorb.
func watchGate(base *serveload.WatchReport, curs []*serveload.WatchReport, tol, floorMS float64) (violations, summary []string) {
	summary = append(summary, fmt.Sprintf("%-12s %12s %12s %9s %8s", "subscribers", "base p99", "best p99", "resyncs", "errors"))
	for _, bl := range base.Propagation {
		bestP99 := 0.0
		resyncs, errs := 0, 0
		seen := false
		for _, cur := range curs {
			for _, cl := range cur.Propagation {
				if cl.Subscribers != bl.Subscribers {
					continue
				}
				if !seen || cl.P99MS < bestP99 {
					bestP99 = cl.P99MS
					resyncs, errs = cl.Resyncs, cl.Errors
				}
				seen = true
			}
		}
		if !seen {
			violations = append(violations, fmt.Sprintf("level %d: missing from current reports", bl.Subscribers))
			continue
		}
		summary = append(summary, fmt.Sprintf("%-12d %10.1fms %10.1fms %9d %8d",
			bl.Subscribers, bl.P99MS, bestP99, resyncs, errs))
		if maxP99 := bl.P99MS*(1+tol) + floorMS; bestP99 > maxP99 {
			violations = append(violations, fmt.Sprintf("level %d: propagation p99 %.1fms > %.1fms (baseline %.1fms + %.0f%% + %.0fms)",
				bl.Subscribers, bestP99, maxP99, bl.P99MS, tol*100, floorMS))
		}
		if bl.Resyncs == 0 && resyncs > 0 {
			violations = append(violations, fmt.Sprintf("level %d: %d resyncs (baseline delivered without buffer overflow)",
				bl.Subscribers, resyncs))
		}
		if bl.Errors == 0 && errs > 0 {
			violations = append(violations, fmt.Sprintf("level %d: %d event decode errors (baseline had none)",
				bl.Subscribers, errs))
		}
	}
	return violations, summary
}

func readWatchReport(path string) (*serveload.WatchReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r serveload.WatchReport
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Propagation) == 0 {
		return nil, fmt.Errorf("%s: no propagation levels", path)
	}
	return &r, nil
}

func readIngestReport(path string) (*bench.IngestReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r bench.IngestReport
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &r, nil
}

func readReport(path string) (*serveload.ServeReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r serveload.ServeReport
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Levels) == 0 {
		return nil, fmt.Errorf("%s: no levels", path)
	}
	return &r, nil
}

// gate scores every baseline level against the best current observation and
// returns the violations plus a human-readable summary table.
func gate(base *serveload.ServeReport, curs []*serveload.ServeReport, tol, floorMS float64) (violations, summary []string) {
	summary = append(summary, fmt.Sprintf("%-8s %12s %12s %12s %12s", "clients", "base qps", "best qps", "base p99", "best p99"))
	for _, bl := range base.Levels {
		bestQPS, bestP99 := 0.0, 0.0
		seen := false
		for _, cur := range curs {
			for _, cl := range cur.Levels {
				if cl.Concurrency != bl.Concurrency {
					continue
				}
				if !seen || cl.QPS > bestQPS {
					bestQPS = cl.QPS
				}
				if !seen || cl.P99MS < bestP99 {
					bestP99 = cl.P99MS
				}
				seen = true
			}
		}
		if !seen {
			violations = append(violations, fmt.Sprintf("level %d: missing from current reports", bl.Concurrency))
			continue
		}
		summary = append(summary, fmt.Sprintf("%-8d %12.0f %12.0f %11.1fms %11.1fms",
			bl.Concurrency, bl.QPS, bestQPS, bl.P99MS, bestP99))
		if minQPS := bl.QPS * (1 - tol); bestQPS < minQPS {
			violations = append(violations, fmt.Sprintf("level %d: QPS %.0f < %.0f (baseline %.0f - %.0f%%)",
				bl.Concurrency, bestQPS, minQPS, bl.QPS, tol*100))
		}
		if maxP99 := bl.P99MS*(1+tol) + floorMS; bestP99 > maxP99 {
			violations = append(violations, fmt.Sprintf("level %d: p99 %.1fms > %.1fms (baseline %.1fms + %.0f%% + %.0fms)",
				bl.Concurrency, bestP99, maxP99, bl.P99MS, tol*100, floorMS))
		}
	}
	return violations, summary
}
