package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005} }
	noisy := func(c float64) []float64 { return []float64{c * 0.7, c, c * 1.3, c * 0.8, c * 1.2} }
	for _, c := range []struct {
		name, better string
		bound        float64
		a, b         []float64
		want         string
	}{
		{"same", "lower", 0.10, steady(10), steady(10), verdictOK},
		{"lower-better, 5% slower, inside bound", "lower", 0.10, steady(10), steady(10.5), verdictOK},
		{"lower-better, 20% slower", "lower", 0.10, steady(10), steady(12), verdictWorse},
		{"lower-better, 20% faster", "lower", 0.10, steady(10), steady(8), verdictOK},
		{"higher-better, 20% less", "higher", 0.10, steady(100), steady(80), verdictWorse},
		{"higher-better, 20% more", "higher", 0.10, steady(100), steady(120), verdictOK},
		{"spread wider than the bound is not 'unchanged'", "lower", 0.10, noisy(10), steady(10), verdictUnresolved},
		{"nor is it 'worse'", "lower", 0.10, steady(10), noisy(14), verdictUnresolved},
	} {
		if got, _, _, _, _ := judge(c.better, c.bound, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSubcommand(t *testing.T) {
	dir := t.TempDir()
	bound := 0.10
	spec := specFile{
		Workloads: []specWorkload{{Name: "w1", Why: "x"}, {Name: "w2", Why: "y"}},
		EndToEnd:  []specMetric{{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: &bound}},
		PerLayer:  []specMetric{{Name: "rdb.exec_us", Unit: "us", Better: "lower"}},
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	b, _ := spec.marshal()
	if err := os.WriteFile(specPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, lat map[string][]float64) string {
		var buf bytes.Buffer
		for w, xs := range lat {
			for i, x := range xs {
				line, _ := json.Marshal(record{Workload: w, Seed: int64(i), result: result{Correct: true, Attempted: 1,
					Metrics: map[string]metricValue{"latency_ms": {x, "ms"}, "rdb.exec_us": {x * 100, "us"}}}})
				buf.Write(append(line, '\n'))
			}
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.jsonl", map[string][]float64{"w1": {10, 10.1, 9.9, 10, 10.05}, "w2": {5, 5.02, 4.98, 5, 5.01}})
	same := write("same.jsonl", map[string][]float64{"w1": {10.2, 10.1, 10, 10.1, 10.15}, "w2": {5, 5.01, 4.99, 5, 5.02}})
	slow := write("slow.jsonl", map[string][]float64{"w1": {10, 10.1, 9.9, 10, 10.05}, "w2": {6.5, 6.52, 6.48, 6.5, 6.51}})

	var out, errs bytes.Buffer
	if code := runCompare([]string{"-spec", specPath, a, same}, &out, &errs); code != 0 {
		t.Errorf("equal sets: exit %d\n%s%s", code, out.String(), errs.String())
	}
	if strings.Contains(out.String(), verdictWorse+"\n") || !strings.Contains(out.String(), "ok: 4") {
		t.Errorf("equal sets:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare([]string{"-spec", specPath, a, slow}, &out, &errs); code != 1 {
		t.Errorf("a 30%% slower workload: exit %d, want 1\n%s", code, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"w2", "latency_ms", verdictWorse, // the row that regressed
		"1.300 (A = 5)", // the ratio comes with its base
		"rdb.exec_us",   // per-layer rows are printed, unjudged
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}

	// A set whose operations started failing is worse however fast the rest
	// became, and a run that failed its answer checks is named.
	var buf bytes.Buffer
	for i, x := range []float64{4, 4.02, 3.98, 4, 4.01} {
		r := record{Workload: "w2", Seed: int64(i), result: result{Correct: i != 2, Attempted: 100,
			Metrics: map[string]metricValue{"latency_ms": {x, "ms"}, "rdb.exec_us": {x * 100, "us"}}}}
		if i == 2 {
			r.Failed = 7
		}
		line, _ := json.Marshal(r)
		buf.Write(append(line, '\n'))
	}
	refusing := filepath.Join(dir, "refusing.jsonl")
	if err := os.WriteFile(refusing, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := runCompare([]string{"-spec", specPath, a, refusing}, &out, &errs); code != 1 {
		t.Errorf("a faster set that fails operations: exit %d, want 1\n%s", code, out.String())
	}
	text = out.String()
	if !regexp.MustCompile(`w2\s+failed_share\s.*\sworse`).MatchString(text) || !strings.Contains(text, "incorrect run: "+refusing+": workload w2 seed 2: 7 of 100") {
		t.Errorf("failed operations are not gated:\n%s", text)
	}
	if !regexp.MustCompile(`w2\s+latency_ms\s.*\sok`).MatchString(text) {
		t.Errorf("the latency row itself should read ok (it got faster):\n%s", text)
	}
	if code := runCompare([]string{a}, &out, &errs); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
}
