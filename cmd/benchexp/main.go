// Command benchexp regenerates the paper's experimental tables and figures
// (§6): Exp-1 (Fig 12), Exp-2 (Fig 13), Exp-3 (Fig 14), Exp-4 (Fig 16 /
// Table 4 and Fig 17) and Exp-5 (Table 5). Everything else the repo measures
// — serving, updates, standing views, the cluster, ingest — is a workload of
// benchmark/ (bash benchmark/run.sh).
//
// Usage:
//
//	benchexp [-exp all|1|2|3|4|5] [-scale small|medium|paper]
//	         [-trace] [-timeout 0] [-cpuprofile file] [-memprofile file]
//
// Scale selects the dataset sizes: "paper" uses the publication's element
// counts (120,000 to 5 million; minutes to hours of runtime), the default
// "small" a ~30× reduction (seconds). -timeout bounds every measured
// execution (a tripped limit aborts the experiment with a limit error);
// -trace prints the most expensive statements under each table row.
// -cpuprofile and -memprofile write pprof profiles covering the whole run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"xpath2sql/internal/bench"
	"xpath2sql/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, 1, 2, 3, 4 or 5")
	scale := flag.String("scale", "small", "dataset scale: small, medium or paper")
	trace := flag.Bool("trace", false, "print a per-statement breakdown under each table row")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per measured execution (0 = unlimited)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := bench.Config{
		Scale:  bench.Scale(*scale),
		Out:    os.Stdout,
		Trace:  *trace,
		Limits: obs.Limits{Timeout: *timeout},
	}
	switch bench.Scale(*scale) {
	case bench.ScaleSmall, bench.ScaleMedium, bench.ScalePaper:
	default:
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	var err error
	switch *exp {
	case "all":
		err = bench.RunAll(cfg)
	case "1":
		_, err = bench.Exp1(cfg)
	case "2":
		_, err = bench.Exp2(cfg)
	case "3":
		_, err = bench.Exp3(cfg)
	case "4":
		if _, err = bench.Exp4BIOML(cfg); err == nil {
			_, err = bench.Exp4GedML(cfg)
		}
	case "5":
		_, err = bench.Exp5(cfg)
	default:
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	if err != nil {
		fatal(err)
	}

	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			fatal(ferr)
		}
		defer f.Close()
		runtime.GC()
		if ferr := pprof.WriteHeapProfile(f); ferr != nil {
			fatal(ferr)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchexp:", err)
	os.Exit(1)
}
