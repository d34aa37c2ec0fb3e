package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// opKind separates the operation types of a mixed workload.
type opKind uint8

const (
	opQuery opKind = iota
	opUpdate
)

// sample is one timed operation as its caller saw it.
type sample struct {
	at     time.Duration // completion time since the loop started
	lat    time.Duration
	kind   opKind
	failed bool // transport error, refusal, time-out or wrong answer
}

// loadResult is what one closed-loop run produced.
type loadResult struct {
	samples []sample
	// clients holds each client's completed operations and own loop time; a
	// closed loop's rate is the sum over clients of completed ÷ elapsed,
	// free of window-edge effects.
	clients []clientRun
	// wrong counts answers that arrived but failed their check; they are
	// also marked failed in samples.
	wrong int
}

// clientRun is one closed-loop client's tally.
type clientRun struct {
	completed int
	elapsed   time.Duration
}

func (r *loadResult) failed() int {
	n := 0
	for _, s := range r.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// add appends a later stretch of the same closed loop: its samples, and
// each client's completed operations and loop time onto that client's tally.
func (r *loadResult) add(o *loadResult) {
	r.samples = append(r.samples, o.samples...)
	r.wrong += o.wrong
	if r.clients == nil {
		r.clients = make([]clientRun, len(o.clients))
	}
	for i, c := range o.clients {
		r.clients[i].completed += c.completed
		r.clients[i].elapsed += c.elapsed
	}
}

// latenciesMS returns the ascending latencies of one kind's completed
// operations in milliseconds.
func (r *loadResult) latenciesMS(kind opKind) []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.kind == kind && !s.failed {
			out = append(out, s.lat.Seconds()*1000)
		}
	}
	sort.Float64s(out)
	return out
}

// summary is the end-to-end view of a run, as the clock gave it.
type summary struct {
	// opsPerS is the closed loop's rate: the sum over clients of completed ÷
	// the client's own loop time, which is free of window-edge effects
	// however long an operation is.
	opsPerS float64
	// p50ms and tailms are exact nearest-rank percentiles over every
	// completed operation of a kind, indexed by opKind; tailQ says which
	// percentile tailms is. A workload with one kind of operation reports it
	// under both.
	p50ms, tailms, tailQ [2]float64
	samples              int
}

// tailPercentile picks the percentile a sample of n reports as its tail: the
// highest of p50, p90 and p95 that still has ten samples beyond it. The p95
// of an ingest run's forty passes is its second-slowest pass, which says
// more about the machine's worst moment than about the program.
func tailPercentile(n int) float64 {
	return max(0.50, min(0.95, highestSupported(n)))
}

func summarize(r *loadResult) summary {
	var sum summary
	for _, cl := range r.clients {
		if cl.elapsed > 0 {
			sum.opsPerS += float64(cl.completed) / cl.elapsed.Seconds()
		}
	}
	lat := [2][]float64{opQuery: r.latenciesMS(opQuery), opUpdate: r.latenciesMS(opUpdate)}
	sum.samples = len(lat[opQuery]) + len(lat[opUpdate])
	if len(lat[opQuery]) == 0 {
		lat[opQuery] = lat[opUpdate]
	}
	if len(lat[opUpdate]) == 0 {
		lat[opUpdate] = lat[opQuery]
	}
	for k, l := range lat {
		sum.tailQ[k] = tailPercentile(len(l))
		sum.p50ms[k], sum.tailms[k] = percentile(l, 0.50), percentile(l, sum.tailQ[k])
	}
	return sum
}

// httpOp is one request a client is about to send.
type httpOp struct {
	path string
	body []byte
	kind opKind
	// tag carries generator state from next to ack (which query, which
	// pending insert).
	tag int
}

// clientGen produces one closed-loop client's request stream. next is called
// only after the previous operation's ack, so a generator may depend on what
// the server answered (an update stream deletes only what it inserted).
type clientGen interface {
	next() httpOp
	// ack checks the answer. A non-nil error marks the operation failed;
	// errWrongAnswer additionally marks the run incorrect.
	ack(op httpOp, status int, body []byte) error
}

// errWrongAnswer wraps answer-check failures, as opposed to refusals.
var errWrongAnswer = errors.New("wrong answer")

// newLoadClient returns a client with one keep-alive connection of its own.
func newLoadClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// post sends one request and reads the whole answer into buf.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// runHTTPLoad drives base with one closed-loop goroutine per generator:
// warm-up operations first (untimed, unchecked failures still abort), then d
// of measurement. It returns once every client has stopped and released its
// connection.
func runHTTPLoad(base string, gens []clientGen, warm, d time.Duration) (*loadResult, error) {
	type clientOut struct {
		samples  []sample
		run      clientRun
		wrong    int
		firstErr error
	}
	outs := make([]clientOut, len(gens))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, g := range gens {
		wg.Add(1)
		go func(out *clientOut, g clientGen) {
			defer wg.Done()
			c := newLoadClient()
			defer c.CloseIdleConnections()
			var buf bytes.Buffer
			do := func() (httpOp, time.Duration, error) {
				op := g.next()
				t0 := time.Now()
				status, err := post(c, base+op.path, op.body, &buf)
				lat := time.Since(t0)
				if err == nil {
					err = g.ack(op, status, buf.Bytes())
				}
				return op, lat, err
			}
			<-start
			for t0 := time.Now(); time.Since(t0) < warm; {
				if _, _, err := do(); err != nil && out.firstErr == nil {
					out.firstErr = fmt.Errorf("warm-up: %w", err)
				}
			}
			out.samples = make([]sample, 0, 1<<14)
			t0 := time.Now()
			for {
				op, lat, err := do()
				at := time.Since(t0)
				s := sample{at: at, lat: lat, kind: op.kind, failed: err != nil}
				if err != nil {
					if errors.Is(err, errWrongAnswer) {
						out.wrong++
					}
					if out.firstErr == nil {
						out.firstErr = err
					}
				}
				out.samples = append(out.samples, s)
				if err == nil {
					out.run.completed++
				}
				if at >= d {
					out.run.elapsed = at
					return
				}
			}
		}(&outs[i], g)
	}
	close(start)
	wg.Wait()
	res := &loadResult{}
	var firstErr error
	for _, o := range outs {
		res.samples = append(res.samples, o.samples...)
		res.clients = append(res.clients, o.run)
		res.wrong += o.wrong
		if firstErr == nil {
			firstErr = o.firstErr
		}
	}
	if firstErr != nil && res.failed() == len(res.samples) {
		// Nothing worked at all: that is a broken set-up, not a result.
		return nil, firstErr
	}
	if firstErr != nil {
		fmt.Fprintf(diag, "benchmark: first failed operation: %v\n", firstErr)
	}
	return res, nil
}

// diag receives the harness's own diagnostics.
var diag io.Writer = io.Discard

// answerDigest is what a query answer is checked by: how many node IDs and
// an FNV-1a hash over them in order.
type answerDigest struct {
	count int
	hash  uint64
}

func digestIDs(ids []int) answerDigest {
	h := fnv.New64a()
	var b [8]byte
	for _, id := range ids {
		putUint64(&b, uint64(id))
		h.Write(b[:])
	}
	return answerDigest{len(ids), h.Sum64()}
}

func putUint64(b *[8]byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

var idsKey = []byte(`"ids":`)

// digestResponse scans a /v1/query answer for its "ids" array and digests
// it without building the slice; it runs on every timed response, on the
// same cores as the server, so it must stay cheap.
func digestResponse(body []byte) (answerDigest, error) {
	i := bytes.Index(body, idsKey)
	if i < 0 {
		return answerDigest{}, fmt.Errorf("%w: no ids in response", errWrongAnswer)
	}
	i += len(idsKey)
	for i < len(body) && (body[i] == ' ' || body[i] == '\n') {
		i++
	}
	if i >= len(body) || body[i] != '[' {
		if bytes.HasPrefix(body[i:], []byte("null")) {
			return digestIDs(nil), nil
		}
		return answerDigest{}, fmt.Errorf("%w: ids is not an array", errWrongAnswer)
	}
	i++
	h := fnv.New64a()
	var b [8]byte
	n, cur, inNum := 0, uint64(0), false
	for ; i < len(body); i++ {
		switch c := body[i]; {
		case c >= '0' && c <= '9':
			cur = cur*10 + uint64(c-'0')
			inNum = true
		case c == ',' || c == ']' || c == ' ' || c == '\n':
			if inNum {
				putUint64(&b, cur)
				h.Write(b[:])
				n++
				cur, inNum = 0, false
			}
			if c == ']' {
				return answerDigest{n, h.Sum64()}, nil
			}
		default:
			return answerDigest{}, fmt.Errorf("%w: unexpected %q in ids", errWrongAnswer, c)
		}
	}
	return answerDigest{}, fmt.Errorf("%w: unterminated ids", errWrongAnswer)
}

// checkStatus is the common first half of every ack.
func checkStatus(op httpOp, status int, body []byte) error {
	if status == http.StatusOK {
		return nil
	}
	if len(body) > 200 {
		body = body[:200]
	}
	return fmt.Errorf("POST %s: status %d: %s", op.path, status, bytes.TrimSpace(body))
}

// timedLoop runs fn as a one-client closed loop for d and returns its
// samples; the library-seam workloads (watch, ingest) use it in place of the
// HTTP driver.
func timedLoop(ctx context.Context, d time.Duration, kind opKind, fn func(ctx context.Context) (time.Duration, error)) (*loadResult, error) {
	res := &loadResult{clients: make([]clientRun, 1)}
	t0 := time.Now()
	for {
		lat, err := fn(ctx)
		at := time.Since(t0)
		if err != nil && !errors.Is(err, errWrongAnswer) {
			return nil, err
		}
		if err != nil {
			res.wrong++
			fmt.Fprintf(diag, "benchmark: %v\n", err)
		}
		res.samples = append(res.samples, sample{at: at, lat: lat, kind: kind, failed: err != nil})
		if err == nil {
			res.clients[0].completed++
		}
		if at >= d {
			res.clients[0].elapsed = at
			return res, nil
		}
	}
}
