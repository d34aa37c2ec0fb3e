package xpath2sql

import (
	"testing"

	"xpath2sql/internal/core"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xpath"
)

// coldMissAllocs bounds the objects a plan-cache miss of /v1/translate
// allocates per query in translation and rendering: Schema.Translate and the
// DB2 RenderSQL of its program, averaged over the gedmlCold corpus. It is
// the count measured when it was set plus 10 %: a pass that rebuilds nodes it
// does not change, or scratch that stops being recycled, fails it.
const coldMissAllocs = 550

// TestColdMissAllocs holds a cold translation to coldMissAllocs.
func TestColdMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	s := core.NewSchema(workload.GedML())
	queries := make([]xpath.Path, len(gedmlCold))
	for i, q := range gedmlCold {
		queries[i] = xpath.MustParse(q)
	}
	i := 0
	// AllocsPerRun warms up with one call, then averages 8 over each query.
	got := testing.AllocsPerRun(8*len(queries), func() {
		res, err := s.Translate(queries[i%len(queries)], core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.Program.RenderSQL(ra.SQLRenderOptions{}); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.1f allocations per cold translation and rendering", got)
	if got > coldMissAllocs {
		t.Errorf("a cold translation and rendering allocates %.1f objects, want at most %d", got, coldMissAllocs)
	}
}
