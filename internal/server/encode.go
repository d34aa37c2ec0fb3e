package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"xpath2sql"
)

// jsonBufPool recycles response buffers: a recursive-query answer carries
// thousands of node IDs, so the encoded body is tens of kilobytes and is
// rebuilt on every request.
var jsonBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// appendIDs appends a JSON array of node IDs without reflection.
func appendIDs(b []byte, ids []int) []byte {
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, ']')
}

// appendStats appends the execution-statistics object, mirroring the JSON
// tags of rdb.Stats.
func appendStats(b []byte, st *xpath2sql.ExecStats) []byte {
	b = append(b, `{"stmts_run":`...)
	b = strconv.AppendInt(b, int64(st.StmtsRun), 10)
	b = append(b, `,"joins":`...)
	b = strconv.AppendInt(b, int64(st.Joins), 10)
	b = append(b, `,"unions":`...)
	b = strconv.AppendInt(b, int64(st.Unions), 10)
	b = append(b, `,"lfps":`...)
	b = strconv.AppendInt(b, int64(st.LFPs), 10)
	b = append(b, `,"lfp_iters":`...)
	b = strconv.AppendInt(b, int64(st.LFPIters), 10)
	b = append(b, `,"rec_fixes":`...)
	b = strconv.AppendInt(b, int64(st.RecFixes), 10)
	b = append(b, `,"tuples_out":`...)
	b = strconv.AppendInt(b, int64(st.TuplesOut), 10)
	b = append(b, `,"desc_scans":`...)
	b = strconv.AppendInt(b, int64(st.DescScans), 10)
	b = append(b, `,"stair_scans":`...)
	b = strconv.AppendInt(b, int64(st.StairScans), 10)
	b = append(b, `,"exists_probes":`...)
	b = strconv.AppendInt(b, int64(st.ExistsProbes), 10)
	return append(b, '}')
}

// writeQueryResponse writes a 200 query answer by hand. The ids array
// dominates the body of a large answer, and encoding/json's reflective
// path over []int costs several milliseconds at answer sizes recursive
// queries produce — an encode that runs once per request and competes with
// query execution for the same cores. The output is byte-compatible JSON for
// the queryResponse shape (see TestWriteQueryResponseMatchesEncodingJSON).
func writeQueryResponse(w http.ResponseWriter, resp *queryResponse) {
	bp := jsonBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, `{"ids":`...)
	b = appendIDs(b, resp.IDs)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(resp.Count), 10)
	b = append(b, `,"elapsed_ms":`...)
	b = strconv.AppendFloat(b, resp.ElapsedMS, 'g', -1, 64)
	b = append(b, `,"stats":`...)
	b = appendStats(b, &resp.Stats)
	if resp.Explain != "" {
		// Explain text needs real string escaping; it is off the hot path.
		eb, err := json.Marshal(resp.Explain)
		if err == nil {
			b = append(b, `,"explain":`...)
			b = append(b, eb...)
		}
	}
	if resp.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if len(resp.FailedShards) > 0 {
		// Shard names are fixed-format ("shardN"), but escape for safety;
		// degraded answers are off the hot path.
		fb, err := json.Marshal(resp.FailedShards)
		if err == nil {
			b = append(b, `,"failed_shards":`...)
			b = append(b, fb...)
		}
	}
	if resp.Watermark != 0 {
		b = append(b, `,"watermark":`...)
		b = strconv.AppendUint(b, resp.Watermark, 10)
	}
	b = append(b, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	*bp = b
	jsonBufPool.Put(bp)
}
