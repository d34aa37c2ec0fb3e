package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// Verdicts of compare.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictReported   = "-" // per-layer metrics have no bound to be judged by
)

// comparison is one (workload, metric) row.
type comparison struct {
	Workload, Metric, Unit string
	A, B                   float64 // medians
	SpreadA, SpreadB       float64 // interquartile range ÷ median
	NA, NB                 int
	Verdict                string
}

// ratio is B over A; its base is A.
func (c comparison) ratio() float64 {
	if c.A == 0 {
		return 0
	}
	return c.B / c.A
}

// judge applies a metric's direction and bound to two sets of runs. A spread
// wider than the bound in either set means the sets cannot tell a change of
// the bound's size from noise: that is unresolved, not unchanged.
func judge(better string, bound float64, a, b []float64) (verdict string, ma, mb, sa, sb float64) {
	ma, mb, sa, sb = median(a), median(b), spread(a), spread(b)
	if sa > bound || sb > bound {
		return verdictUnresolved, ma, mb, sa, sb
	}
	if ma == 0 {
		return verdictOK, ma, mb, sa, sb
	}
	worse := (mb - ma) / ma
	if better == "higher" {
		worse = -worse
	}
	if worse > bound {
		return verdictWorse, ma, mb, sa, sb
	}
	return verdictOK, ma, mb, sa, sb
}

// readRecords loads an -out file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// failedShare is failed ÷ attempted over a set's runs of one workload,
// traced and untraced alike, and how many of those runs there were.
func failedShare(recs []record, workload string) (share float64, runs int) {
	attempted, failed := 0, 0
	for _, r := range recs {
		if r.Workload == workload {
			attempted, failed, runs = attempted+r.Attempted, failed+r.Failed, runs+1
		}
	}
	if attempted == 0 {
		return 0, runs
	}
	return float64(failed) / float64(attempted), runs
}

// incorrect lists the runs of a set that did not pass their answer checks.
func incorrect(path string, recs []record) []string {
	var out []string
	for _, r := range recs {
		if !r.Correct {
			out = append(out, fmt.Sprintf("%s: workload %s seed %d: %d of %d operations failed", path, r.Workload, r.Seed, r.Failed, r.Attempted))
		}
	}
	return out
}

// valuesByKey groups metric values by workload and metric name.
func valuesByKey(recs []record) map[[2]string][]float64 {
	out := map[[2]string][]float64{}
	for _, r := range recs {
		for name, mv := range r.Metrics {
			k := [2]string{r.Workload, name}
			out[k] = append(out[k], mv.Value)
		}
	}
	return out
}

// compareSets judges every (workload, metric) pair present in both sets, in
// the spec's workload and metric order.
func compareSets(spec specFile, a, b []record) []comparison {
	va, vb := valuesByKey(a), valuesByKey(b)
	var rows []comparison
	for _, w := range spec.Workloads {
		add := func(m specMetric) {
			k := [2]string{w.Name, m.Name}
			xa, xb := va[k], vb[k]
			if len(xa) == 0 || len(xb) == 0 {
				return
			}
			c := comparison{Workload: w.Name, Metric: m.Name, Unit: m.Unit, NA: len(xa), NB: len(xb)}
			if m.Bound == nil {
				c.Verdict, c.A, c.B, c.SpreadA, c.SpreadB = verdictReported, median(xa), median(xb), spread(xa), spread(xb)
			} else {
				c.Verdict, c.A, c.B, c.SpreadA, c.SpreadB = judge(m.Better, *m.Bound, xa, xb)
			}
			rows = append(rows, c)
		}
		for _, m := range spec.EndToEnd {
			add(m)
		}
		// failed_share has an absolute bound of 0: a change under which more
		// operations fail is worse however fast the rest became.
		fa, na := failedShare(a, w.Name)
		fb, nb := failedShare(b, w.Name)
		if na > 0 && nb > 0 {
			c := comparison{Workload: w.Name, Metric: "failed_share", Unit: "share", A: fa, B: fb, NA: na, NB: nb, Verdict: verdictOK}
			if fb > fa {
				c.Verdict = verdictWorse
			}
			rows = append(rows, c)
		}
		for _, m := range spec.PerLayer {
			add(m)
		}
	}
	return rows
}

// runCompare is the compare subcommand: benchmark compare A.jsonl B.jsonl.
// It exits 1 when any end-to-end metric is worse, when a workload's failed
// share rose, or when either set holds a run that failed its answer checks;
// 0 otherwise. Unresolved rows are printed as such and counted in the
// summary line.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark description directions and bounds are read from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	rows := compareSets(spec, a, b)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median (n, spread)\tB median (n, spread)\tB/A (base A)\tverdict")
	counts := map[string]int{}
	for _, c := range rows {
		counts[c.Verdict]++
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g (%d, %.1f%%)\t%.4g (%d, %.1f%%)\t%.3f (A = %.4g)\t%s\n",
			c.Workload, c.Metric, c.Unit, c.A, c.NA, 100*c.SpreadA, c.B, c.NB, 100*c.SpreadB, c.ratio(), c.A, c.Verdict)
	}
	tw.Flush()
	var verdicts []string
	for v := range counts {
		verdicts = append(verdicts, v)
	}
	sort.Strings(verdicts)
	for _, v := range verdicts {
		fmt.Fprintf(stdout, "%s: %d  ", v, counts[v])
	}
	fmt.Fprintln(stdout)
	bad := append(incorrect(fs.Arg(0), a), incorrect(fs.Arg(1), b)...)
	for _, line := range bad {
		fmt.Fprintln(stdout, "incorrect run:", line)
	}
	if counts[verdictWorse] > 0 || len(bad) > 0 {
		return 1
	}
	return 0
}
