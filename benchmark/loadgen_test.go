package main

import (
	"encoding/json"
	"errors"
	"testing"
	"time"
)

func TestDigestResponseMatchesDigestIDs(t *testing.T) {
	for _, ids := range [][]int{nil, {}, {7}, {1, 2, 3, 40000, 123456789}} {
		body, _ := json.Marshal(map[string]any{"ids": ids, "count": len(ids), "stats": map[string]int{"joins": 3}})
		got, err := digestResponse(body)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if want := digestIDs(ids); got != want {
			t.Errorf("%s: digest %+v, want %+v", body, got, want)
		}
	}
	// The server's hand-rolled encoder writes ids first and no spaces.
	got, err := digestResponse([]byte(`{"ids":[5,6,7],"count":3,"elapsed_ms":0.1}` + "\n"))
	if err != nil || got != digestIDs([]int{5, 6, 7}) {
		t.Errorf("compact form: %+v, %v", got, err)
	}
	if a, b := digestIDs([]int{1, 2}), digestIDs([]int{2, 1}); a == b {
		t.Error("the digest ignores order")
	}
	for _, bad := range []string{`{"count":3}`, `{"ids":"x"}`, `{"ids":[1,2`, `{"ids":[1,x]}`} {
		if _, err := digestResponse([]byte(bad)); !errors.Is(err, errWrongAnswer) {
			t.Errorf("%s: error %v, want a wrong-answer error", bad, err)
		}
	}
}

// TestSummarizeKeepsTheKindsApart: a mixed run's reads and updates get
// percentiles of their own over every completed sample, and the rate is the
// sum of each client's completed ÷ its own loop time.
func TestSummarizeKeepsTheKindsApart(t *testing.T) {
	r := &loadResult{clients: []clientRun{{completed: 600, elapsed: 2 * time.Second}, {completed: 600, elapsed: 2500 * time.Millisecond}}}
	for i := 1; i <= 1000; i++ { // reads of 0.01 … 10 ms
		r.samples = append(r.samples, sample{lat: time.Duration(i) * 10 * time.Microsecond, kind: opQuery})
	}
	for i := 1; i <= 201; i++ { // updates of 1 … 201 ms
		r.samples = append(r.samples, sample{lat: time.Duration(i) * time.Millisecond, kind: opUpdate})
	}
	r.samples[1200].failed = true // the slowest update was refused
	got := summarize(r)
	if got.opsPerS != 540 {
		t.Errorf("rate %v, want 300 + 240", got.opsPerS)
	}
	if got.p50ms[opQuery] != 5 || got.tailms[opQuery] != 9.5 {
		t.Errorf("reads: p50 %v p95 %v, want 5 and 9.5", got.p50ms[opQuery], got.tailms[opQuery])
	}
	if got.p50ms[opUpdate] != 100 || got.tailms[opUpdate] != 190 { // over the 200 that completed
		t.Errorf("updates: p50 %v p95 %v, want 100 and 190", got.p50ms[opUpdate], got.tailms[opUpdate])
	}
	if got.samples != 1200 || got.tailQ != [2]float64{0.95, 0.95} {
		t.Errorf("%d samples with tails %v, want 1200 and p95 for both kinds", got.samples, got.tailQ)
	}
	if r.failed() != 1 {
		t.Errorf("failed() = %d, want 1", r.failed())
	}
}

// TestSummarizeOneKindFillsBothNames: the driver wants every end-to-end
// metric from every workload and none may be 0.
func TestSummarizeOneKindFillsBothNames(t *testing.T) {
	for _, kind := range []opKind{opQuery, opUpdate} {
		r := &loadResult{clients: []clientRun{{completed: 19, elapsed: 10 * time.Second}}}
		for i := 0; i < 19; i++ {
			r.samples = append(r.samples, sample{lat: time.Duration(300+i) * time.Millisecond, kind: kind})
		}
		got := summarize(r)
		if got.p50ms != [2]float64{309, 309} || got.tailms != got.p50ms || got.tailQ != [2]float64{0.5, 0.5} {
			t.Errorf("kind %d: p50 %v, tail p%v %v; want 309 under both names and, with 19 samples, no tail past the median", kind, got.p50ms, got.tailQ, got.tailms)
		}
		if got.samples != 19 {
			t.Errorf("kind %d: %d samples, want 19", kind, got.samples)
		}
	}
}

func TestAddContinuesEachClientsTally(t *testing.T) {
	whole := &loadResult{}
	for i := 0; i < 2; i++ {
		whole.add(&loadResult{samples: make([]sample, 3), wrong: 1,
			clients: []clientRun{{completed: 100, elapsed: time.Second}, {completed: 50, elapsed: 2 * time.Second}}})
	}
	if got := summarize(whole).opsPerS; got != 125 { // 200 in 2 s beside 100 in 4 s
		t.Errorf("rate %v over two chunks, want 125", got)
	}
	if len(whole.samples) != 6 || whole.wrong != 2 {
		t.Errorf("%d samples, %d wrong, want 6 and 2", len(whole.samples), whole.wrong)
	}
}

func TestTailPercentileKeepsTenSamplesBeyondIt(t *testing.T) {
	for n, want := range map[int]float64{0: 0.5, 19: 0.5, 40: 0.5, 99: 0.5, 100: 0.9, 199: 0.9, 200: 0.95, 100000: 0.95} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}
