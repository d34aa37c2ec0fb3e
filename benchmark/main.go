// Command benchmark is the repository's one benchmark: six named workloads
// over the whole XPath-to-SQL pipeline, a handful of end-to-end metrics every
// workload reports, and per-layer metrics measured from outside the program
// by replaying operations at each layer's public seam. BENCHMARK.json at the
// repository root describes it; README.md in this directory explains it.
//
//	benchmark -workload read-desc [-seed 1] [-seconds 8] [-trace 0|1] [-out runs.jsonl]
//	benchmark compare A.jsonl B.jsonl
//	benchmark spec > BENCHMARK.json
//
// Everything runs in this one process: servers are httptest servers on
// loopback, there are no child processes, and every store, hub, cluster,
// connection and temp directory is released before exit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
	deadline time.Duration
	clients  int
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of an -out file: the result plus where it came from.
type record struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Trace        bool               `json:"trace"`
	Env          environment        `json:"env"`
	Clock        map[string]float64 `json:"clock,omitempty"`
	MachineSpeed []float64          `json:"machine_speed,omitempty"`
	result
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "spec":
			b, err := currentSpec().marshal()
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 2
			}
			stdout.Write(b)
			return 0
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long the timed part of the run measures")
	fs.IntVar(&trace, "trace", 0, "1 replays a seeded sample through each layer's public seams and reports the per-layer metrics instead")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs and a 300 ms run, for the harness's own tests")
	fs.StringVar(&cfg.out, "out", "", "append this run's metrics and environment stamp to a JSON-lines file")
	fs.DurationVar(&cfg.deadline, "deadline", 90*time.Second, "hard limit for the whole run; exceeding it exits non-zero")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	if cfg.smoke {
		cfg.seconds = 0.3
	}
	cfg.clients = loadClients
	build := workloadBuilder(cfg.workload)
	if build == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}

	diag = stderr
	h, err := newHarness(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	stopGuard := h.guard(stderr)
	res, err := h.execute(build, stdout)
	stopGuard()
	if cerr := h.cleanup(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if cfg.out != "" {
		if err := appendRecord(cfg.out, record{cfg.workload, cfg.seed, cfg.trace, stampEnvironment(), h.clock, h.readings, *res}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.Name)
	}
	return names
}

func workloadBuilder(name string) func(*harness) (instance, error) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w.build
		}
	}
	return nil
}

// instance is one set-up of a workload: the program under test, built and
// warm, plus the generators and oracle answers that drive and check it.
type instance interface {
	// load drives the workload's closed loop, untraced, for d after an
	// untimed lead-in of warm. Successive calls continue the same request
	// streams.
	load(d, warm time.Duration) (*loadResult, error)
	// verify runs the answer checks that need a quiet system. It returns
	// how many checks it made and how many came out wrong.
	verify() (checked, wrong int, err error)
	// trace replays a seeded sample of the workload's operations through
	// each layer's public seams, recording spans and filling in the
	// per-layer metrics the workload exercises.
	trace(rec *recorder, m layerMetrics) error
	// close releases everything build acquired.
	close() error
}

// layerMetrics collects per-layer values by declared name.
type layerMetrics map[string]float64

// harness owns what outlives a single instance: the run's private temp
// root and the settings.
type harness struct {
	cfg   config
	tmp   string
	speed speedometer // read by untraced runs only
	// clock and readings are an untraced run's timed metrics as the clock
	// gave them and the machine-speed readings they were scaled by (before
	// set-up, then around each chunk); -out records them beside the result.
	clock    map[string]float64
	readings []float64
	rec      *recorder // the traced run's spans, kept for the printed breakdown

	mu      sync.Mutex
	tmpGone bool
}

// loadClients is the number of closed-loop clients of the HTTP workloads,
// each with one keep-alive connection. The service admits GOMAXPROCS
// requests at a time and gives a request that executes alone all the
// intra-query workers, a request that shares the machine one each — and the
// two execution paths differ severalfold in speed. With as many clients as
// cores the server flips between the two from one request to the next and a
// run's numbers depend on how often it did. Four clients keep every
// admission slot taken on machines of up to four cores, so every request
// runs the same way and what remains is the machine's own noise.
const loadClients = 4

// setupReps is how many times a run sets the workload up; setup_s is the
// median, which keeps one slow disk flush or GC cycle out of the number.
const setupReps = 5

func newHarness(cfg config) (*harness, error) {
	// TMPDIR is set by run.sh to a directory inside the checkout; the run's
	// own root below it is removed on every exit path.
	if err := os.MkdirAll(os.TempDir(), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "xpbench-")
	if err != nil {
		return nil, err
	}
	speed := speedometer{mappings: 4, rounds: 3} // a reading takes a third of a second at nominal speed
	if cfg.smoke {
		speed = speedometer{mappings: 1, rounds: 1}
	}
	return &harness{cfg: cfg, tmp: tmp, speed: speed}, nil
}

// tempDir makes a fresh directory under the run's temp root.
func (h *harness) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(h.tmp, prefix+"-")
}

func (h *harness) cleanup() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tmpGone {
		return nil
	}
	h.tmpGone = true
	return os.RemoveAll(h.tmp)
}

// guard arms the hard deadline and the signal handler: either removes the
// temp root and exits non-zero. There are no child processes, so exiting
// the process stops everything the run started. The returned function
// disarms both.
func (h *harness) guard(stderr io.Writer) (stop func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	timer := time.NewTimer(h.cfg.deadline)
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-done:
			return
		case <-timer.C:
			fmt.Fprintf(stderr, "benchmark: deadline %v exceeded on workload %s\n", h.cfg.deadline, h.cfg.workload)
		case s := <-sig:
			fmt.Fprintf(stderr, "benchmark: %v\n", s)
		}
		_ = h.cleanup() // best effort: the process is going down either way
		os.Exit(3)
	}()
	return func() {
		signal.Stop(sig)
		timer.Stop()
		close(done)
		<-exited
	}
}

// execute sets the workload up setupReps times (keeping the last), then
// either measures it untraced or traces it, and always tears it down.
func (h *harness) execute(build func(*harness) (instance, error), stdout io.Writer) (res *result, err error) {
	baseline := runtime.NumGoroutine()
	var setups []float64
	var inst instance
	speedBefore := 0.0
	if !h.cfg.trace {
		if speedBefore, err = h.speed.read(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
			inst = nil
		}
		runtime.GC()
		t0 := time.Now()
		inst, err = build(h)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := inst.close(); err == nil && cerr != nil {
			err = fmt.Errorf("tear down: %w", cerr)
		}
		// A store's automatic checkpoint runs on a goroutine Close does not
		// wait for; give stragglers a moment so the temp root is not
		// removed under a writer and nothing outlives the run.
		if lerr := waitGoroutines(baseline, 5*time.Second); err == nil && lerr != nil {
			err = lerr
		}
	}()

	res = &result{Metrics: map[string]metricValue{}}
	if h.cfg.trace {
		err = h.traced(inst, res)
	} else {
		err = h.untraced(inst, res, median(setups), speedBefore, stdout)
	}
	if err != nil {
		return nil, err
	}
	printResult(stdout, h.cfg, res)
	if h.rec != nil {
		printBreakdowns(stdout, h.rec)
	}
	return res, nil
}

// measureChunks is how many chunks the measurement window is cut into,
// with the machine's speed read before, between and after them.
const measureChunks = 5

// untraced runs the closed loop over the window, then the answer checks,
// and fills in every end-to-end metric: the wall-clock figures over all of
// the window's operations, the timed ones scaled by the machine's mean speed
// over the window (calibrate.go). Any failed operation — refused, timed out,
// transport error or wrong answer — makes the run incorrect: the workloads
// are chosen so that none fails, and a program that starts refusing requests
// must not look faster for it.
func (h *harness) untraced(inst instance, res *result, setupS, speedBefore float64, stdout io.Writer) error {
	n := measureChunks
	if h.cfg.smoke {
		n = 1
	}
	each := time.Duration(h.cfg.seconds * float64(time.Second) / float64(n))
	first, err := h.speed.read()
	if err != nil {
		return err
	}
	readings := []float64{first}
	whole := &loadResult{}
	for i := 0; i < n; i++ {
		warm := h.warmUp()
		if i > 0 {
			warm /= 10 // only connections to re-open; caches and pools are warm
		}
		lr, err := inst.load(each, warm)
		if err != nil {
			return err
		}
		whole.add(lr)
		after, err := h.speed.read()
		if err != nil {
			return err
		}
		readings = append(readings, after)
	}
	checked, wrong, err := inst.verify()
	if err != nil {
		return err
	}
	sum := summarize(whole)
	res.Attempted = len(whole.samples) + checked
	res.Failed = whole.failed() + wrong
	res.Correct = res.Failed == 0
	speed, setupSpeed := mean(readings), (speedBefore+readings[0])/2
	h.clock = map[string]float64{
		"setup_s":          setupS,
		"throughput_ops_s": sum.opsPerS,
		"latency_p50_ms":   sum.p50ms[opQuery],
		"latency_tail_ms":  sum.tailms[opQuery],
		"update_p50_ms":    sum.p50ms[opUpdate],
		"update_tail_ms":   sum.tailms[opUpdate],
	}
	h.readings = append([]float64{speedBefore}, readings...)
	fmt.Fprintf(stdout, "as the clock gave them: %.4f ops/s, reads p50 %.4f p%g %.4f ms, updates p50 %.4f p%g %.4f ms, set-up %.4f s (%d operations; the tail is the highest of p50, p90, p95 with ten samples beyond it)\n",
		sum.opsPerS, sum.p50ms[opQuery], 100*sum.tailQ[opQuery], sum.tailms[opQuery], sum.p50ms[opUpdate], 100*sum.tailQ[opUpdate], sum.tailms[opUpdate], setupS, sum.samples)
	fmt.Fprintf(stdout, "machine speed, 1 = nominal: %.3f before set-up, then %.3f around the chunks; times below are multiplied by %.3f, set-up by %.3f\n",
		speedBefore, readings, speed, setupSpeed)
	values := map[string]float64{"peak_rss_mb": peakRSSMB()}
	for name, v := range h.clock {
		switch name {
		case "setup_s":
			values[name] = v * setupSpeed
		case "throughput_ops_s":
			values[name] = v / speed
		default:
			values[name] = v * speed
		}
	}
	return fillMetrics(res, endToEnd, values)
}

// traceDir is where a traced run writes trace-<workload>.json, relative to
// the directory it is run from: beside everything else a run leaves behind.
var traceDir = filepath.Join(".bench_build", "out")

// traced fills in every per-layer metric — 0 for layers the workload
// bypasses — and writes the spans.
func (h *harness) traced(inst instance, res *result) error {
	rec := &recorder{}
	h.rec = rec
	m := layerMetrics{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	if err := inst.trace(rec, m); err != nil {
		return err
	}
	checked, wrong, err := inst.verify()
	if err != nil {
		return err
	}
	res.Attempted = rec.ops + checked
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	res.Failed = wrong
	res.Correct = wrong == 0
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	if err := rec.write(filepath.Join(traceDir, "trace-"+h.cfg.workload+".json")); err != nil {
		return err
	}
	return fillMetrics(res, perLayer, m)
}

// fillMetrics copies values into the result under their declared units and
// rejects a value the harness computed for an undeclared name, or failed to
// compute for a declared one.
func fillMetrics(res *result, defs []metricDef, values map[string]float64) error {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		declared := map[string]bool{}
		for _, d := range defs {
			declared[d.Name] = true
		}
		for name := range values {
			if !declared[name] {
				return fmt.Errorf("metric %s is not declared in spec.go", name)
			}
		}
	}
	return nil
}

func printResult(w io.Writer, cfg config, res *result) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s seed %d (%s, %d clients): attempted %d failed %d correct %v\n",
		cfg.workload, cfg.seed, mode, cfg.clients, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mv := res.Metrics[n]
		if cfg.trace && mv.Value == 0 {
			continue // a bypassed layer; the JSON line still carries it
		}
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, mv.Value, mv.Unit)
	}
}

// printBreakdowns shows, per kind of operation traced, where its time went:
// every span's self time as a share of the outermost spans' total.
func printBreakdowns(w io.Writer, rec *recorder) {
	for _, root := range rec.roots() {
		b := breakdownOf(rec.spans, root)
		if b.whole == 0 {
			continue
		}
		fmt.Fprintf(w, "self time under %s (%d ops, mean %.1f us, overrun %.1f%%):\n",
			root, b.ops, b.whole/float64(b.ops)/1e3, 100*b.overrun/b.whole)
		names := make([]string, 0, len(b.self))
		for n := range b.self {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return b.self[names[i]] > b.self[names[j]] })
		for _, n := range names {
			fmt.Fprintf(w, "  %-36s %6.1f %%\n", n, 100*b.share(n))
		}
	}
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// waitGoroutines waits for the goroutine count to fall back to baseline.
func waitGoroutines(baseline int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running after tear-down (baseline %d)", n, baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

var errNoStatus = errors.New("no VmHWM line in /proc/self/status")

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB.
// The process runs one workload, so this is that workload's peak memory,
// harness included. Where /proc is missing it falls back to the Go
// runtime's own total, which is lower but never zero.
func peakRSSMB() float64 {
	if kb, err := readVmHWM(); err == nil {
		return float64(kb) / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func readVmHWM() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb int64
			if _, err := fmt.Sscan(strings.TrimPrefix(line, "VmHWM:"), &kb); err != nil {
				return 0, err
			}
			return kb, nil
		}
	}
	return 0, errNoStatus
}
