package main

import (
	"strings"
	"testing"

	"xpath2sql/internal/bench"
	"xpath2sql/internal/serveload"
)

func report(levels ...serveload.ServeResult) *serveload.ServeReport {
	return &serveload.ServeReport{Levels: levels}
}

func level(n int, qps, p99 float64) serveload.ServeResult {
	return serveload.ServeResult{Concurrency: n, QPS: qps, P99MS: p99}
}

func TestGatePassesWithinTolerance(t *testing.T) {
	base := report(level(1, 100, 10), level(8, 400, 20))
	cur := report(level(1, 85, 11), level(8, 330, 23))
	v, _ := gate(base, []*serveload.ServeReport{cur}, 0.20, 2)
	if len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestGateFailsOnQPSRegression(t *testing.T) {
	base := report(level(8, 400, 20))
	cur := report(level(8, 300, 20)) // 25% down
	v, _ := gate(base, []*serveload.ServeReport{cur}, 0.20, 2)
	if len(v) != 1 || !strings.Contains(v[0], "QPS") {
		t.Fatalf("violations: %v", v)
	}
}

func TestGateFailsOnP99Regression(t *testing.T) {
	base := report(level(8, 400, 20))
	cur := report(level(8, 400, 30)) // 20×1.2+2 = 26ms allowed
	v, _ := gate(base, []*serveload.ServeReport{cur}, 0.20, 2)
	if len(v) != 1 || !strings.Contains(v[0], "p99") {
		t.Fatalf("violations: %v", v)
	}
}

func TestGateFloorAbsorbsSmallBaselineJitter(t *testing.T) {
	// 1.0ms baseline p99 doubling to 2.0ms stays inside the 2ms floor.
	base := report(level(1, 900, 1.0))
	cur := report(level(1, 950, 2.0))
	v, _ := gate(base, []*serveload.ServeReport{cur}, 0.20, 2)
	if len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestGateBestOfN(t *testing.T) {
	// One noisy run and one healthy run: best-of-N passes on the healthy one.
	base := report(level(8, 400, 20))
	noisy := report(level(8, 200, 60))
	healthy := report(level(8, 390, 21))
	v, _ := gate(base, []*serveload.ServeReport{noisy, healthy}, 0.20, 2)
	if len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	// Both runs bad: the regression is real and survives the max.
	v, _ = gate(base, []*serveload.ServeReport{noisy, report(level(8, 250, 50))}, 0.20, 2)
	if len(v) != 2 {
		t.Fatalf("violations: %v", v)
	}
}

func TestGateMissingLevel(t *testing.T) {
	base := report(level(1, 100, 10), level(8, 400, 20))
	cur := report(level(1, 100, 10))
	v, _ := gate(base, []*serveload.ServeReport{cur}, 0.20, 2)
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("violations: %v", v)
	}
}

func ingestReport(runs ...bench.IngestResult) *bench.IngestReport {
	return &bench.IngestReport{Runs: runs}
}

func ingestRun(engine string, workers int, eps, rss float64) bench.IngestResult {
	return bench.IngestResult{Engine: engine, Workers: workers, ElemsPerSec: eps, PeakRSSMB: rss}
}

func TestIngestGatePassesWithinTolerance(t *testing.T) {
	base := ingestReport(ingestRun("stream", 1, 100000, 200), ingestRun("tree", 1, 60000, 350))
	cur := ingestReport(ingestRun("stream", 1, 85000, 220), ingestRun("tree", 1, 50000, 340))
	v, _ := ingestGate(base, []*bench.IngestReport{cur}, 0.20)
	if len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestIngestGateFailsOnThroughputRegression(t *testing.T) {
	base := ingestReport(ingestRun("stream", 4, 100000, 200))
	cur := ingestReport(ingestRun("stream", 4, 70000, 200)) // 30% down
	v, _ := ingestGate(base, []*bench.IngestReport{cur}, 0.20)
	if len(v) != 1 || !strings.Contains(v[0], "elems/s") {
		t.Fatalf("violations: %v", v)
	}
}

func TestIngestGateBestOfN(t *testing.T) {
	base := ingestReport(ingestRun("stream", 2, 100000, 200))
	noisy := ingestReport(ingestRun("stream", 2, 40000, 500))
	healthy := ingestReport(ingestRun("stream", 2, 95000, 210))
	v, _ := ingestGate(base, []*bench.IngestReport{noisy, healthy}, 0.20)
	if len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestIngestGateIgnoresRSS(t *testing.T) {
	// Higher RSS alone is not a regression; the gate is throughput-only.
	base := ingestReport(ingestRun("stream", 1, 100000, 200))
	cur := ingestReport(ingestRun("stream", 1, 99000, 900))
	v, _ := ingestGate(base, []*bench.IngestReport{cur}, 0.20)
	if len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}
