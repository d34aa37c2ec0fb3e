package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// openFDs counts this process's open descriptors: listeners, connections,
// WAL segments and data files all show up here.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// childPIDs lists processes whose parent is this one.
func childPIDs(t *testing.T) []int {
	t.Helper()
	self := os.Getpid()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	var kids []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue // exited while we looked
		}
		// pid (comm) state ppid ...; comm may hold spaces, so cut after ')'.
		rest := string(stat[bytes.LastIndexByte(stat, ')')+1:])
		if f := strings.Fields(rest); len(f) >= 2 {
			if ppid, _ := strconv.Atoi(f[1]); ppid == self {
				kids = append(kids, pid)
			}
		}
	}
	return kids
}

// TestWorkloadsLeaveNothingBehind runs every workload at smoke size, traced
// and untraced, and requires what the previous attempt at a benchmark was
// rejected for lacking: afterwards there is no goroutine, descriptor (so no
// listening port), temp file or child process that was not there before.
// It also checks each run's result line against the declared metrics.
func TestWorkloadsLeaveNothingBehind(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	defer func(dir string) { traceDir = dir }(traceDir)
	traceDir = t.TempDir()
	// One throwaway run first: the runtime and net/http start a few
	// process-lifetime helpers on first use.
	var sink bytes.Buffer
	if code := run([]string{"-workload", "translate-cold", "-smoke"}, &sink, &sink); code != 0 {
		t.Fatalf("warm-up run exited %d:\n%s", code, sink.String())
	}

	for _, w := range workloadDefs {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				time.Sleep(20 * time.Millisecond) // let the previous run's closed connections finish dying
				goroutines, fds := runtime.NumGoroutine(), openFDs(t)
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w.Name, "-smoke", "-seed", "5", "-trace", trace}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				checkResultLine(t, stdout.Bytes(), trace == "1")

				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > goroutines {
					buf := make([]byte, 1<<16)
					t.Errorf("%d goroutines after the run, %d before:\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
				}
				for openFDs(t) > fds && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
				if n := openFDs(t); n > fds {
					t.Errorf("%d open descriptors after the run, %d before: a listener, connection or file was left open", n, fds)
				}
				if left, _ := os.ReadDir(tmp); len(left) != 0 {
					t.Errorf("temp dir still holds %d entries, first %s", len(left), left[0].Name())
				}
				if kids := childPIDs(t); len(kids) != 0 {
					t.Errorf("child processes %v exist; the benchmark must not start any", kids)
				}
			})
		}
	}
}

// checkResultLine requires the last line to be the contract's JSON object,
// carrying exactly the declared metrics of the run's mode.
func checkResultLine(t *testing.T, stdout []byte, traced bool) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &raw); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(raw) != 4 {
		t.Errorf("result line has %d keys, want exactly correct, attempted, failed, metrics", len(raw))
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		mv, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("declared metric %s was not printed", d.Name)
			continue
		}
		if mv.Unit != d.Unit {
			t.Errorf("metric %s printed in %q, declared in %q", d.Name, mv.Unit, d.Unit)
		}
		if !traced && mv.Value <= 0 {
			t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, mv.Value)
		}
	}
	if traced {
		// No upper limit: a smoke run peels six operations, and on a busy
		// machine one slow replay of an inner seam outweighs all six.
		if v := res.Metrics["trace.unattributed_share"].Value; v < 0 {
			t.Errorf("trace.unattributed_share = %v, want it clamped at 0", v)
		}
		if v := res.Metrics["trace.overhead_share"].Value; v < 0 {
			t.Errorf("trace.overhead_share = %v, want it clamped at 0", v)
		}
	}
}

func TestUnknownWorkloadAndBadFlagsExitNonZero(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "no-such"}, {}, {"-workload", "read-desc", "-seconds", "0"}, {"-bogus"},
	} {
		out.Reset()
		if code := run(args, &out, &out); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
		if bytes.Contains(out.Bytes(), []byte(`"metrics"`)) {
			t.Errorf("run(%v) printed a result", args)
		}
	}
}

func TestOutFileCarriesTheEnvironmentStamp(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	out := filepath.Join(t.TempDir(), "runs.jsonl")
	var buf bytes.Buffer
	for i := 0; i < 2; i++ {
		if code := run([]string{"-workload", "translate-cold", "-smoke", "-seed", fmt.Sprint(i + 1), "-out", out}, &buf, &buf); code != 0 {
			t.Fatalf("exit %d:\n%s", code, buf.String())
		}
	}
	recs, err := readRecords(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seed != 1 || recs[1].Seed != 2 || recs[0].Workload != "translate-cold" {
		t.Fatalf("records: %+v", recs)
	}
	env := recs[0].Env
	if env.GoVersion != runtime.Version() || env.NumCPU != runtime.NumCPU() || env.GOMAXPROCS < 1 || env.CPUModel == "" || env.Commit == "" {
		t.Errorf("environment stamp incomplete: %+v", env)
	}
}
