package server

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"xpath2sql"
)

// TestWriteQueryResponseMatchesEncodingJSON: the hand-rolled hot-path
// encoder must produce JSON that decodes back to exactly the struct
// encoding/json would round-trip, across the field combinations the
// handlers emit.
func TestWriteQueryResponseMatchesEncodingJSON(t *testing.T) {
	cases := []queryResponse{
		{},
		{IDs: []int{}, Count: 0, ElapsedMS: 0.0425},
		{IDs: []int{7}, Count: 1, ElapsedMS: 1.5, Stats: xpath2sql.ExecStats{StmtsRun: 3, Joins: 2, LFPs: 1, LFPIters: 9, TuplesOut: 12345}},
		{IDs: []int{1, 2, 3, 99999, 100000}, Count: 5, ElapsedMS: 123.456},
		{IDs: []int{5, 6}, Count: 2, Explain: "line1\n\"quoted\" <tag> & unicode ✓"},
		{IDs: make([]int, 5000), Count: 5000, ElapsedMS: 0.000001},
	}
	for i := range cases[5].IDs {
		cases[5].IDs[i] = i * 3
	}
	for ci, c := range cases {
		rec := httptest.NewRecorder()
		writeQueryResponse(rec, &c)
		if rec.Code != 200 {
			t.Fatalf("case %d: code %d", ci, rec.Code)
		}
		var got queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("case %d: invalid JSON: %v\n%s", ci, err, rec.Body.String())
		}
		// encoding/json round-trips nil slices to null→nil and empty to [];
		// normalize through a reference round-trip of the same struct.
		refBlob, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var want queryResponse
		if err := json.Unmarshal(refBlob, &want); err != nil {
			t.Fatal(err)
		}
		// The hand encoder emits "ids":[] for a nil slice where
		// encoding/json emits null — [] is the intended API shape (the ids
		// field is always an array); normalize the reference.
		if want.IDs == nil {
			want.IDs = []int{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: decoded %+v, want %+v", ci, got, want)
		}
	}
}

// TestWriteQueryResponseWarmAllocs: the encoder reuses pooled buffers, so a
// warm steady-state response performs only the ResponseWriter's own work.
func TestWriteQueryResponseWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; alloc bounds need a normal build")
	}
	ids := make([]int, 10000)
	for i := range ids {
		ids[i] = i
	}
	resp := &queryResponse{IDs: ids, Count: len(ids), ElapsedMS: 3.25}
	rec := httptest.NewRecorder()
	writeQueryResponse(rec, resp) // warm the buffer pool
	allocs := testing.AllocsPerRun(20, func() {
		rec := httptest.NewRecorder()
		writeQueryResponse(rec, resp)
	})
	// The recorder itself allocates (header map, body buffer); the encoder
	// must not add per-id work on top.
	if allocs > 25 {
		t.Fatalf("warm writeQueryResponse allocates %.0f per call", allocs)
	}
}
