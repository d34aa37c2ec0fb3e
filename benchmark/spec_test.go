package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTheTables: BENCHMARK.json is `benchmark spec`'s
// output, so a metric is declared in one place and printed under the same
// name it is declared by.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	want, err := currentSpec().marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the tables in spec.go; regenerate it with: benchmark spec > BENCHMARK.json")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(got))
	}
}

// TestSpecIsWithinTheContract lints names, units and counts against the
// limits a BENCHMARK.json is refused beyond.
func TestSpecIsWithinTheContract(t *testing.T) {
	s := currentSpec()
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", s.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range s.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		use(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	for _, m := range append(append([]specMetric{}, s.EndToEnd...), s.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range s.PerLayer {
		use(m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
		if !strings.Contains(m.Name, ".") {
			t.Errorf("per-layer metric %s is not <layer>.<metric>", m.Name)
		}
	}
	for _, c := range s.Command {
		if strings.HasPrefix(c, "/") || strings.Contains(c, "..") || len(c) > 200 {
			t.Errorf("command element %q", c)
		}
	}
	for _, k := range opKinds {
		if !seen["rdb.op_us."+k] {
			t.Errorf("operator kind %s has no rdb.op_us line", k)
		}
	}
}

// TestFillMetricsRejectsUndeclaredAndMissing is the run-time half of the
// lint: a run can neither print a name that is not declared nor skip one
// that is.
func TestFillMetricsRejectsUndeclaredAndMissing(t *testing.T) {
	defs := []metricDef{{Name: "a.x", Unit: "us"}, {Name: "a.y", Unit: "us"}}
	res := &result{Metrics: map[string]metricValue{}}
	if err := fillMetrics(res, defs, map[string]float64{"a.x": 1, "a.y": 2}); err != nil {
		t.Errorf("complete set refused: %v", err)
	}
	if err := fillMetrics(res, defs, map[string]float64{"a.x": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if err := fillMetrics(res, defs, map[string]float64{"a.x": 1, "a.y": 2, "a.z": 3}); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}
