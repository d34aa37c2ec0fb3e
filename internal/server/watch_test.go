package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xpath2sql"
)

const watchCourseFragment = `<course><cno>cs99</cno><title>new</title><prereq></prereq><takenBy></takenBy></course>`

// sseStream opens a /v1/watch SSE subscription and returns a reader of
// decoded events plus a closer for the connection.
type sseStream struct {
	resp *http.Response
	sc   *bufio.Scanner
}

func openSSE(t *testing.T, url, query string) *sseStream {
	t.Helper()
	blob, err := json.Marshal(watchRequest{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/watch", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		var out bytes.Buffer
		_, _ = out.ReadFrom(resp.Body)
		resp.Body.Close()
		t.Fatalf("watch: status %d: %s", resp.StatusCode, out.String())
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch Content-Type = %q, want text/event-stream", ct)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return &sseStream{resp: resp, sc: bufio.NewScanner(resp.Body)}
}

// read decodes one SSE message (event: + data: lines up to a blank line).
func (s *sseStream) read() (xpath2sql.WatchEvent, error) {
	var ev xpath2sql.WatchEvent
	var data string
	for s.sc.Scan() {
		line := s.sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return ev, fmt.Errorf("bad SSE data %q: %v", data, err)
			}
			return ev, nil
		}
	}
	return ev, fmt.Errorf("SSE stream ended early: %v", s.sc.Err())
}

// next is read for the test's own goroutine: a broken stream is fatal.
func (s *sseStream) next(t *testing.T) xpath2sql.WatchEvent {
	t.Helper()
	ev, err := s.read()
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// closed reports whether the stream ends without another message.
func (s *sseStream) closed() bool {
	for s.sc.Scan() {
		if strings.HasPrefix(s.sc.Text(), "data: ") {
			return false
		}
	}
	return true
}

func doUpdate(t *testing.T, url string, req updateRequest) updateResponse {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/update", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d: %s", resp.StatusCode, body)
	}
	var ur updateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	return ur
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestWatchSSEStream: the SSE transport delivers the snapshot and then one
// delta per update, each carrying the same epoch the corresponding
// /v1/update response acknowledged — the correlation contract: a client
// that saw update epoch E acknowledged will observe the watch stream reach
// E.
func TestWatchSSEStream(t *testing.T) {
	s, _ := newLiveServer(t, "", nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	stream := openSSE(t, ts.URL, "dept//course")
	snap := stream.next(t)
	if snap.Type != xpath2sql.WatchSnapshot || snap.Resync {
		t.Fatalf("first event = %+v, want plain snapshot", snap)
	}
	if len(snap.IDs) != 2 {
		t.Fatalf("snapshot = %+v, want the seed's two courses", snap)
	}

	// Insert: the ack's epoch and node_id must appear in the delta.
	ur := doUpdate(t, ts.URL, updateRequest{Op: "insert_subtree", Parent: 1, Fragment: watchCourseFragment})
	ev := stream.next(t)
	if ev.Type != xpath2sql.WatchDelta || ev.Epoch != ur.Epoch {
		t.Fatalf("insert event = %+v, want delta at epoch %d", ev, ur.Epoch)
	}
	if !slices.Contains(ev.Added, ur.NodeID) || len(ev.Removed) != 0 {
		t.Fatalf("insert delta = %+v, want added to contain %d", ev, ur.NodeID)
	}

	// Text update: structurally irrelevant to dept//course, but its epoch
	// still flows through the stream (empty delta).
	ur2 := doUpdate(t, ts.URL, updateRequest{Op: "update_text", Node: 3, Value: "cs11x"})
	if ur2.Epoch != ur.Epoch+1 {
		t.Fatalf("update epochs not consecutive: %d then %d", ur.Epoch, ur2.Epoch)
	}
	ev = stream.next(t)
	if ev.Type != xpath2sql.WatchDelta || ev.Epoch != ur2.Epoch || len(ev.Added)+len(ev.Removed) != 0 {
		t.Fatalf("text event = %+v, want empty delta at epoch %d", ev, ur2.Epoch)
	}

	// Delete the inserted course: the same node leaves the answer.
	ur3 := doUpdate(t, ts.URL, updateRequest{Op: "delete_subtree", Node: ur.NodeID})
	ev = stream.next(t)
	if ev.Type != xpath2sql.WatchDelta || ev.Epoch != ur3.Epoch || !slices.Contains(ev.Removed, ur.NodeID) {
		t.Fatalf("delete event = %+v, want delta at epoch %d removing %d", ev, ur3.Epoch, ur.NodeID)
	}

	// The watch counters surface on /metrics.
	metrics := scrapeMetrics(t, ts.URL)
	for _, metric := range []string{"xpathd_watch_subscriptions 1", "xpathd_watch_views 1", "xpathd_watch_deltas_total 3"} {
		if !strings.Contains(metrics, metric) {
			t.Fatalf("metrics missing %q:\n%s", metric, metrics)
		}
	}
}

// TestWatchFanoutDeliversEveryEpoch: sixteen concurrent SSE subscribers over
// seven standing queries — descendant, child-axis, one value-selecting, one
// negated, so delta-maintained and rerun views share the fan-out — each see
// every acknowledged epoch of forty updates exactly once, in order, and never
// a resync. Subscriber 0 is read by the writer itself, which paces the
// updates on the hub's own output; the others read concurrently.
func TestWatchFanoutDeliversEveryEpoch(t *testing.T) {
	s, _ := newLiveServer(t, "", nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	queries := []string{
		"dept//project", "dept//course", "dept//student", "dept//cno",
		"dept/course/prereq/course", "dept//cno[text()='cs11x']", "dept/course[not(prereq/course)]",
	}
	const subscribers, updates = 16, 40
	streams := make([]*sseStream, subscribers)
	var base uint64
	for i := range streams {
		streams[i] = openSSE(t, ts.URL, queries[i%len(queries)])
		snap := streams[i].next(t)
		if snap.Type != xpath2sql.WatchSnapshot || snap.Resync {
			t.Fatalf("subscriber %d: first event = %+v, want plain snapshot", i, snap)
		}
		base = snap.Epoch
	}
	// A lost delivery would leave a reader waiting for good: end the streams
	// instead, so it fails with what it saw. Every exit path ends them too
	// and waits for the readers, so none reports after the test is over.
	closeStreams := func() {
		for _, stream := range streams {
			stream.resp.Body.Close()
		}
	}
	watchdog := time.AfterFunc(30*time.Second, closeStreams)
	seen := make([][]xpath2sql.WatchEvent, subscribers)
	var wg sync.WaitGroup
	t.Cleanup(func() {
		watchdog.Stop()
		closeStreams()
		wg.Wait()
	})
	for i := 1; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for len(seen[i]) == 0 || seen[i][len(seen[i])-1].Epoch < base+updates {
				ev, err := streams[i].read()
				if err != nil {
					t.Errorf("subscriber %d after %d events: %v", i, len(seen[i]), err)
					return
				}
				seen[i] = append(seen[i], ev)
			}
		}(i)
	}

	// Ten rounds of: insert a course, point its cno at the value the
	// selecting view watches, point it away again, delete the course.
	var acked []uint64
	var course int
	for i := 0; i < updates; i++ {
		var req updateRequest
		switch i % 4 {
		case 0:
			req = updateRequest{Op: "insert_subtree", Parent: 1, Fragment: watchCourseFragment}
		case 1:
			req = updateRequest{Op: "update_text", Node: course + 1, Value: "cs11x"}
		case 2:
			req = updateRequest{Op: "update_text", Node: course + 1, Value: "cs99"}
		case 3:
			req = updateRequest{Op: "delete_subtree", Node: course}
		}
		ur := doUpdate(t, ts.URL, req)
		if i%4 == 0 {
			course = ur.NodeID
		}
		acked = append(acked, ur.Epoch)
		seen[0] = append(seen[0], streams[0].next(t))
	}
	wg.Wait()

	for i, events := range seen {
		var epochs []uint64
		for _, ev := range events {
			if ev.Type != xpath2sql.WatchDelta || ev.Resync {
				t.Errorf("subscriber %d (%s): event %+v, want a plain delta", i, queries[i%len(queries)], ev)
			}
			epochs = append(epochs, ev.Epoch)
		}
		if !slices.Equal(epochs, acked) {
			t.Errorf("subscriber %d (%s): saw epochs %v, acknowledged %v", i, queries[i%len(queries)], epochs, acked)
		}
	}
	if metrics := scrapeMetrics(t, ts.URL); !strings.Contains(metrics, "xpathd_watch_resyncs_total 0\n") {
		t.Errorf("resyncs counted:\n%s", metrics)
	}
}

// TestWatchRerunReasonsExposed: /metrics says why a view fell back to full
// re-evaluation. Three views take an insert, a text update and a delete: the
// monotone, text-immune one absorbs all three as deltas; the value-selecting
// one reruns on the text update only; the negated one reruns on both structural
// updates and shrugs off the text update. No delete on a monotone plan reruns.
func TestWatchRerunReasonsExposed(t *testing.T) {
	s, _ := newLiveServer(t, "", nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var streams []*sseStream
	for _, q := range []string{"dept//course", "dept//cno[text()='cs11x']", "dept/course[not(prereq/course)]"} {
		stream := openSSE(t, ts.URL, q)
		if snap := stream.next(t); snap.Type != xpath2sql.WatchSnapshot {
			t.Fatalf("%s: first event = %+v, want snapshot", q, snap)
		}
		streams = append(streams, stream)
	}
	ins := doUpdate(t, ts.URL, updateRequest{Op: "insert_subtree", Parent: 1, Fragment: watchCourseFragment})
	doUpdate(t, ts.URL, updateRequest{Op: "update_text", Node: 3, Value: "cs11x"})
	del := doUpdate(t, ts.URL, updateRequest{Op: "delete_subtree", Node: ins.NodeID})
	for _, stream := range streams {
		for stream.next(t).Epoch < del.Epoch {
		}
	}

	metrics := scrapeMetrics(t, ts.URL)
	for _, metric := range []string{
		"xpathd_watch_maintained_total 6",
		"xpathd_watch_reruns_total 3",
		`xpathd_watch_reruns_by_reason_total{reason="non_monotone"} 2`,
		`xpathd_watch_reruns_by_reason_total{reason="text"} 1`,
		`xpathd_watch_reruns_by_reason_total{reason="epoch_gap"} 0`,
		`xpathd_watch_reruns_by_reason_total{reason="error"} 0`,
	} {
		if !strings.Contains(metrics, metric+"\n") {
			t.Fatalf("metrics missing %q:\n%s", metric, metrics)
		}
	}
}

// TestWatchPoll: the long-poll fallback returns the snapshot immediately
// and picks up deltas that land within its wait window; a second poll
// re-anchors at a fresh snapshot that includes the change.
func TestWatchPoll(t *testing.T) {
	s, _ := newLiveServer(t, "", nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Snapshot-only poll (no wait window).
	resp, body := postJSON(t, ts.URL+"/v1/watch", watchRequest{Query: "dept//course", Mode: "poll"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll: status %d: %s", resp.StatusCode, body)
	}
	var pr watchPollResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Events) != 1 || pr.Events[0].Type != xpath2sql.WatchSnapshot {
		t.Fatalf("poll events = %+v, want exactly the snapshot", pr.Events)
	}
	before := len(pr.Events[0].IDs)

	// Poll with a wait window while an update lands mid-window.
	type pollResult struct {
		pr  watchPollResponse
		err error
	}
	done := make(chan pollResult, 1)
	go func() {
		blob, _ := json.Marshal(watchRequest{Query: "dept//course", Mode: "poll", TimeoutMS: 5000, MaxEvents: 2})
		resp, err := http.Post(ts.URL+"/v1/watch", "application/json", bytes.NewReader(blob))
		if err != nil {
			done <- pollResult{err: err}
			return
		}
		defer resp.Body.Close()
		var out pollResult
		out.err = json.NewDecoder(resp.Body).Decode(&out.pr)
		done <- out
	}()
	// Give the poll time to subscribe, then update.
	time.Sleep(100 * time.Millisecond)
	ur := doUpdate(t, ts.URL, updateRequest{Op: "insert_subtree", Parent: 1, Fragment: watchCourseFragment})
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.pr.Events) != 2 {
		t.Fatalf("poll events = %+v, want snapshot + delta", res.pr.Events)
	}
	if ev := res.pr.Events[1]; ev.Type != xpath2sql.WatchDelta || ev.Epoch != ur.Epoch || !slices.Contains(ev.Added, ur.NodeID) {
		t.Fatalf("poll delta = %+v, want epoch %d adding %d", ev, ur.Epoch, ur.NodeID)
	}

	// Re-anchoring: a fresh poll's snapshot includes the inserted course.
	resp, body = postJSON(t, ts.URL+"/v1/watch", watchRequest{Query: "dept//course", Mode: "poll"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-poll: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Events[0].IDs) != before+1 || !slices.Contains(pr.Events[0].IDs, ur.NodeID) {
		t.Fatalf("re-poll snapshot = %v, want %d courses incl. %d", pr.Events[0].IDs, before+1, ur.NodeID)
	}
}

// TestWatchSubscriptionCap: the subscription cap rejects overflow with 429
// and a Retry-After header, and a released slot is reusable.
func TestWatchSubscriptionCap(t *testing.T) {
	s, _ := newLiveServer(t, "", func(c *Config) { c.WatchMaxSubscriptions = 1 })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	stream := openSSE(t, ts.URL, "dept//course")
	stream.next(t) // snapshot: the subscription is fully established

	resp, body := postJSON(t, ts.URL+"/v1/watch", watchRequest{Query: "dept//cno", Mode: "poll"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap watch: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Kind != "watch_limit" {
		t.Fatalf("error kind = %+v, want watch_limit", er)
	}

	// Releasing the SSE subscription frees the slot.
	stream.resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ = postJSON(t, ts.URL+"/v1/watch", watchRequest{Query: "dept//cno", Mode: "poll"})
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: status %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWatchDrain: Shutdown ends live SSE streams cleanly and later watch
// requests are refused while draining.
func TestWatchDrain(t *testing.T) {
	s, _ := newLiveServer(t, "", nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	stream := openSSE(t, ts.URL, "dept//course")
	stream.next(t) // snapshot

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if !stream.closed() {
		t.Fatal("SSE stream still delivering after Shutdown")
	}
	resp, body := postJSON(t, ts.URL+"/v1/watch", watchRequest{Query: "dept//course", Mode: "poll"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("watch while draining: status %d: %s", resp.StatusCode, body)
	}
}
