// Benchmarks regenerating the paper's experiments (§6), one family per
// table/figure. Dataset sizes default to the "small" scale so the suite
// completes in seconds; run cmd/benchexp -scale paper for paper-sized
// inputs. See EXPERIMENTS.md for measured-vs-published shapes.
package xpath2sql

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"xpath2sql/internal/backend"
	"xpath2sql/internal/bench"
	"xpath2sql/internal/core"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/store"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xpath"
)

const benchTarget = 8000 // elements per benchmark dataset

// benchRun translates once and measures executions.
func benchRun(b *testing.B, ds *bench.Dataset, query string, s core.Strategy, push bool) {
	b.Helper()
	q, err := xpath.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Strategy = s
	opts.SQL.PushSelections = push
	res, err := core.Translate(q, ds.DTD, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := res.Execute(ds.DB); err != nil {
			b.Fatal(err)
		}
	}
}

var benchStrategies = []struct {
	name string
	s    core.Strategy
}{
	{"R", core.StrategySQLGenR},
	{"X", core.StrategyCycleEX},
	{"E", core.StrategyCycleE},
}

// BenchmarkFig12 reproduces Exp-1: the queries Qa–Qd over the cross-cycle
// DTD, with tree shape varied via X_L and X_R.
func BenchmarkFig12(b *testing.B) {
	for _, qname := range []string{"Qa", "Qb", "Qc", "Qd"} {
		query := workload.CrossQueries[qname]
		for _, shape := range []struct {
			label  string
			xl, xr int
		}{
			{"XL=8,XR=4", 8, 4}, {"XL=16,XR=4", 16, 4}, {"XL=20,XR=4", 20, 4},
			{"XL=12,XR=4", 12, 4}, {"XL=12,XR=8", 12, 8},
		} {
			ds, err := bench.BuildDataset("cross", workload.Cross(), shape.xl, shape.xr, 42, benchTarget)
			if err != nil {
				b.Fatal(err)
			}
			for _, st := range benchStrategies {
				b.Run(fmt.Sprintf("%s/%s/%s", qname, shape.label, st.name), func(b *testing.B) {
					benchRun(b, ds, query, st.s, true)
				})
			}
		}
	}
}

// BenchmarkFig13 reproduces Exp-2: pushing selections into the LFP operator
// on the selective queries Qe and Qf.
func BenchmarkFig13(b *testing.B) {
	d := workload.Cross()
	for _, tc := range []struct {
		name, query, markType string
	}{
		{"Qe", workload.CrossQueries["Qe"], "a"},
		{"Qf", workload.CrossQueries["Qf"], "d"},
	} {
		for _, selN := range []int{10, 100, 1000} {
			doc, err := bench.GenerateRetry(d, 12, 8, 7, benchTarget)
			if err != nil {
				b.Fatal(err)
			}
			marked := xmlgen.MarkValues(doc, tc.markType, selN, "SEL", int64(selN))
			db, err := shred.Shred(doc, d)
			if err != nil {
				b.Fatal(err)
			}
			ds := &bench.Dataset{DTD: d, Doc: doc, DB: db}
			for _, push := range []bool{true, false} {
				name := fmt.Sprintf("%s/sel=%d/push=%v", tc.name, marked, push)
				b.Run(name, func(b *testing.B) {
					benchRun(b, ds, tc.query, core.StrategyCycleEX, push)
				})
			}
		}
	}
}

// BenchmarkFig14 reproduces Exp-3: scalability of a//d with dataset size.
func BenchmarkFig14(b *testing.B) {
	for _, size := range []int{2000, 8000, 32000} {
		ds, err := bench.BuildDataset("cross", workload.Cross(), 16, 4, 42, size)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range benchStrategies {
			b.Run(fmt.Sprintf("n=%d/%s", ds.Doc.Size(), st.name), func(b *testing.B) {
				benchRun(b, ds, "a//d", st.s, true)
			})
		}
	}
}

// BenchmarkFig16 reproduces Exp-4's BIOML cases (Table 4): queries over the
// extracts, executed against one dataset of the full 4-cycle DTD.
func BenchmarkFig16(b *testing.B) {
	ds, err := bench.BuildDataset("bioml", workload.BIOML(), 16, 6, 42, 4*benchTarget)
	if err != nil {
		b.Fatal(err)
	}
	for _, cs := range workload.BIOMLCases {
		caseDTD := cs.DTD()
		for _, st := range benchStrategies {
			b.Run(fmt.Sprintf("%s/%s", cs.Name, st.name), func(b *testing.B) {
				q := xpath.MustParse(cs.Query)
				opts := core.DefaultOptions()
				opts.Strategy = st.s
				res, err := core.Translate(q, caseDTD, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := res.Execute(ds.DB); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig17 reproduces Exp-4's GedML runs: Even//Data over the 9-cycle
// extract at varying shapes.
func BenchmarkFig17(b *testing.B) {
	for _, shape := range []struct {
		label  string
		xl, xr int
	}{
		{"XL=13,XR=6", 13, 6}, {"XL=15,XR=6", 15, 6}, {"XL=16,XR=8", 16, 8},
	} {
		ds, err := bench.BuildDataset("gedml", workload.GedML(), shape.xl, shape.xr, 42, 2*benchTarget)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range benchStrategies {
			b.Run(fmt.Sprintf("%s/%s", shape.label, st.name), func(b *testing.B) {
				benchRun(b, ds, "Even//Data", st.s, true)
			})
		}
	}
}

// BenchmarkTable5 measures the rec(A,B) representation computation itself:
// CycleEX's all-pairs dynamic program plus CycleE per pair (Exp-5's
// subject).
func BenchmarkTable5(b *testing.B) {
	dtds := map[string]*DTD{
		"cross": workload.Cross(),
		"bioml": workload.BIOML(),
		"gedml": workload.GedML(),
	}
	for name, d := range dtds {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if pairs := core.AllRecPairs(d); len(pairs) == 0 {
					b.Fatal("no pairs")
				}
			}
		})
	}
}

// gedmlCold is a sample of the shapes the translate-cold workload streams over
// the 9-cycle GedML DTD: two to four steps, a third of them //, a constant
// qualifier and the odd path qualifier.
var gedmlCold = []string{
	"Even/Obje/Sour[text()='k0']//Data",
	"Even//Note[not(text()='k1')]/Data//Sour",
	"Even/Obje[.//Data and not(Note)]/Even//Obje[text()='k2']",
	"Even//Sour/Data[.//Note/Even or Sour]//Note[not(text()='k3')]",
	"Even/Obje/Note//Even[text()='k4']/Obje/Sour",
	"Even//Data[not(.//Sour//Even)]/Note[text()='k5']",
	"Even/Obje//Obje[Sour/Data]/Even[not(text()='k6')]//Data",
	"Even//Obje/Sour[.//Even]/Note/Data[text()='k7']//Sour",
}

// BenchmarkTranslate measures translation time alone (Theorem 4.2's
// polynomial bound in practice) for each strategy over the dept DTD, and —
// the two layers of a cold /v1/translate — a translation over GedML with
// nothing cached and the SQL rendering of its program.
func BenchmarkTranslate(b *testing.B) {
	d := workload.Dept()
	q := xpath.MustParse("dept/course[.//prereq/course[cno[text()='cs66']] and not(.//project)]//project")
	for _, st := range benchStrategies {
		b.Run(st.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Strategy = st.s
			for i := 0; i < b.N; i++ {
				if _, err := core.Translate(q, d, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	gedml := workload.GedML()
	queries := make([]xpath.Path, len(gedmlCold))
	progs := make([]*ra.Program, len(gedmlCold))
	for i, s := range gedmlCold {
		queries[i] = xpath.MustParse(s)
		res, err := core.Translate(queries[i], gedml, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		progs[i] = res.Program
	}
	b.Run("GedML/cold", func(b *testing.B) {
		eng, ctx := New(gedml, WithCacheSize(0)), context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Translate(ctx, queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GedML/render", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := progs[i%len(progs)].RenderSQL(ra.SQLRenderOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// What a /v1/translate miss does, without HTTP or JSON: parse and
	// translate, print the extended XPath, render the DB2 script.
	b.Run("GedML/request", func(b *testing.B) {
		eng, ctx := New(gedml, WithCacheSize(0)), context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := eng.PrepareString(ctx, gedmlCold[i%len(gedmlCold)])
			if err != nil {
				b.Fatal(err)
			}
			_ = p.ExtendedXPath().String()
			if _, err := p.SQL(DialectDB2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// readMix is the read-desc workload's query mix (benchmark/gen.go) with its
// text selection listed once.
var readMix = []string{
	"dept//project",
	"dept//cno",
	"dept//course//title",
	"dept//student[qualified//course]",
	"dept/course[cno and not(.//project)]",
	"dept/course/prereq//course/prereq/course",
	"dept//cno[text()='cno-5']",
	"dept//sno | dept//pno",
}

// BenchmarkExecute measures what a warm /v1/query executes, without the
// harness or the server: the read-desc mix, one query per iteration, over a
// generated dept document of the workload's size (35k elements, X_L 8, X_R 4)
// through NewLocalBackend's serial pooled path; query/<i> runs the mix's i-th
// query alone, for a per-query profile. read-mix-after-updates runs
// the same reads on a store's latest epoch, four reads then one update drawn
// as write-mixed draws them (benchmark/gen.go: in the ratio 2:1:1, a 9-element
// course inserted under the root, a delete of one inserted earlier, a text
// update of an original cno), so a read meets the relations and indexes
// updates leave; an iteration is one read or one update.
func BenchmarkExecute(b *testing.B) {
	d, db := deptDB35k(b)
	eng, ctx, be := New(d), context.Background(), NewLocalBackend(db)
	plans := make([]*Translation, len(readMix))
	for i, q := range readMix {
		var err error
		if plans[i], err = eng.TranslateString(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("read-mix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plans[i%len(plans)].ExecuteOn(ctx, be); err != nil {
				b.Fatal(err)
			}
		}
	})
	for i, plan := range plans {
		b.Run(fmt.Sprintf("query/%d", i), func(b *testing.B) {
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				if _, err := plan.ExecuteOn(ctx, be); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("read-mix-after-updates", func(b *testing.B) {
		st, err := store.Open(store.Config{DTD: d, Seed: db, Fsync: store.FsyncNever})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		var leaves, mine []int
		for _, w := range db.Rel("R_cno").Tuples() {
			leaves = append(leaves, w.T)
		}
		r, reads := rand.New(rand.NewSource(1)), 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%5 < 4 {
				ep := st.View()
				if _, err := plans[reads%len(plans)].ExecuteSnapshot(ctx, backend.AdoptDB(ep.DB, ep.Seq)); err != nil {
					b.Fatal(err)
				}
				reads++
				continue
			}
			tag := "u" + strconv.Itoa(i)
			switch k := r.Intn(4); {
			case k == 2 && len(mine) > 0:
				j := r.Intn(len(mine))
				_, err = st.DeleteSubtree(mine[j])
				mine[j], mine = mine[len(mine)-1], mine[:len(mine)-1]
			case k == 3:
				_, err = st.UpdateText(leaves[r.Intn(len(leaves))], tag)
			default:
				var ur store.UpdateResult
				ur, err = st.InsertSubtree(1, courseFragment(tag))
				mine = append(mine, ur.NodeID)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// deptDB35k shreds the 35k-element dept document the benchmark's read-desc
// and write-mixed workloads serve.
func deptDB35k(b *testing.B) (*DTD, *DB) {
	d, err := ParseDTD(workload.DeptText)
	if err != nil {
		b.Fatal(err)
	}
	var doc strings.Builder
	if _, err := StreamGenerate(&doc, d, GenStreamOptions{XL: 8, XR: 4, Seed: 1, TargetBytes: 35000 * 20}); err != nil {
		b.Fatal(err)
	}
	parsed, err := ParseXML(doc.String())
	if err != nil {
		b.Fatal(err)
	}
	db, err := Shred(parsed, d)
	if err != nil {
		b.Fatal(err)
	}
	return d, db
}

// courseFragment is the 9-element course write-mixed inserts under the root.
func courseFragment(tag string) string {
	return "<course><cno>" + tag + "</cno><title>t-" + tag + "</title><prereq></prereq><takenBy></takenBy>" +
		"<project><pno>p-" + tag + "</pno><ptitle>pt</ptitle><required></required></project></course>"
}

// BenchmarkStoreUpdate times a store's write path on the same document: an
// iteration inserts a 9-element course under the root, as write-mixed does,
// and deletes it again. The first insert into a densely loaded store
// relabels every node; it runs before the timer starts.
func BenchmarkStoreUpdate(b *testing.B) {
	d, db := deptDB35k(b)
	st, err := store.Open(store.Config{DTD: d, Seed: db, Fsync: store.FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if _, err := st.InsertSubtree(1, courseFragment("warm")); err != nil {
		b.Fatal(err)
	}
	b.Run("insert-delete-pair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ur, err := st.InsertSubtree(1, courseFragment("u"+strconv.Itoa(i)))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.DeleteSubtree(ur.NodeID); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIngest profiles bulk loading without the harness, over a generated
// dept document of ingest-stream's size and shape (8 MiB, X_L 8, X_R 6):
// stream is one StreamShred pass with a worker per CPU, what ingest-stream
// times, and stream-w1 the same pass with the loader inline, so the two show
// what the loader's own goroutine buys; tree parses the text whole and
// shreds the tree (ParseXML, Shred); save writes the document's Save image
// (SaveDB) and load reads it back (LoadDB).
func BenchmarkIngest(b *testing.B) {
	d, err := ParseDTD(workload.DeptText)
	if err != nil {
		b.Fatal(err)
	}
	var doc bytes.Buffer
	if _, err := StreamGenerate(&doc, d, GenStreamOptions{XL: 8, XR: 6, Seed: 1, TargetBytes: 8 << 20}); err != nil {
		b.Fatal(err)
	}
	text := doc.Bytes()
	for _, c := range []struct {
		name    string
		workers int
	}{{"stream", runtime.NumCPU()}, {"stream-w1", 1}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				if _, err := StreamShred(bytes.NewReader(text), d, ShredStreamOptions{Workers: c.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	str := doc.String()
	b.Run("tree", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(str)))
		for i := 0; i < b.N; i++ {
			parsed, err := ParseXML(str)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Shred(parsed, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	db, err := StreamShred(bytes.NewReader(text), d, ShredStreamOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var img bytes.Buffer
	if err := SaveDB(db, &img); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(img.Len()))
		for i := 0; i < b.N; i++ {
			if err := SaveDB(db, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(img.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := LoadDB(bytes.NewReader(img.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngine exercises the engine primitives: the single-input LFP
// with and without a start constraint, and the multi-relation fixpoint.
func BenchmarkEngine(b *testing.B) {
	ds, err := bench.BuildDataset("cross", workload.Cross(), 16, 4, 42, benchTarget)
	if err != nil {
		b.Fatal(err)
	}
	_ = rdb.NewExec(ds.DB)
	b.Run("Shred", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := shred.Shred(ds.Doc, ds.DTD); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("OracleEval", func(b *testing.B) {
		q := xpath.MustParse("a//d")
		for i := 0; i < b.N; i++ {
			xpath.EvalDoc(q, ds.Doc)
		}
	})
}
