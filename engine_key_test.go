package xpath2sql

import (
	"testing"

	"xpath2sql/internal/core"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xpath"
)

// TestEnginePlanKeyIsPlanKey: the plan-cache key an engine builds from the
// prefix it fingerprinted once in New is core.PlanKey's, under every kind of
// option an engine can be built with.
func TestEnginePlanKeyIsPlanKey(t *testing.T) {
	d := workload.Dept()
	rel := func(typ string) string { return "T_" + typ }
	for i, opts := range [][]EngineOption{
		nil,
		{WithStrategy(StrategySQLGenR)},
		{WithStrategy(StrategyCycleE), WithCacheSize(0)},
		{WithOptions(Options{Strategy: StrategyCycleEX, NestedRec: true, SQL: core.SQLOptions{UseRid: true}})},
		{WithOptions(Options{SQL: core.SQLOptions{AtRoot: true, RelName: rel}})},
	} {
		e := New(d, opts...)
		for _, s := range []string{"dept//project", "dept/course[cno and not(.//project)]", "(dept | dept/course)//cno"} {
			q := xpath.MustParse(s)
			if got, want := e.planKey(q), core.PlanKey(e.schema.Fingerprint(), q, e.opts); got != want {
				t.Errorf("options %d, %s: engine key %q, PlanKey %q", i, s, got, want)
			}
		}
	}
}
