package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"xpath2sql"
	"xpath2sql/internal/cluster"
	"xpath2sql/internal/dtd"
)

// subSeed derives an independent generator seed for one purpose from the
// run's seed (splitmix64 over the seed and an FNV of the purpose), so adding
// a generator never shifts the streams of the others.
func subSeed(seed int64, purpose string) int64 {
	x := uint64(seed)
	for i := 0; i < len(purpose); i++ {
		x = (x ^ uint64(purpose[i])) * 0x100000001b3
	}
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64((x ^ (x >> 31)) >> 1)
}

// deptShape fixes the generator knobs of every dept document the benchmark
// builds. XL 8 / XR 4 yields many small top-level courses, so a byte target
// pins the element count — and each query's answer size — to within a few
// per cent across seeds; that is what lets runs on different seeds be
// compared at all.
const (
	deptXL = 8
	deptXR = 4
	// deptBytesPerElem is the generator's long-run output density at this
	// shape, used to turn an element target into a byte target.
	deptBytesPerElem = 19.94
)

// generateDept writes a dept document of about elems elements.
func generateDept(d *xpath2sql.DTD, seed int64, elems int) (string, xpath2sql.GenStreamStats, error) {
	var buf bytes.Buffer
	st, err := xpath2sql.StreamGenerate(&buf, d, xpath2sql.GenStreamOptions{
		XL: deptXL, XR: deptXR, Seed: seed,
		TargetBytes: int64(float64(elems) * deptBytesPerElem),
	})
	if err != nil {
		return "", st, err
	}
	return buf.String(), st, nil
}

// readMix is the read-desc request mix. The first eight are the issue's
// queries; the text selection is listed twice so the mix has nine slots and
// the median request falls inside one query's latency cluster instead of on
// the boundary between the fourth and fifth of eight.
func readMix(textConst string) []string {
	sel := "dept//cno[text()='" + textConst + "']"
	return []string{
		"dept//project",
		"dept//cno",
		"dept//course//title",
		"dept//student[qualified//course]",
		"dept/course[cno and not(.//project)]",
		"dept/course/prereq//course/prereq/course",
		sel,
		"dept//sno | dept//pno",
		sel,
	}
}

// writeMixQueries are the reads of write-mixed and docscope-read: four of
// the read-desc queries, cheap to dear.
var writeMixQueries = []string{
	"dept//project",
	"dept//cno",
	"dept//course//title",
	"dept/course/prereq//course/prereq/course",
}

// queryGen produces the translate-cold request stream: distinct XPath
// queries over a DTD, each a walk of the DTD graph from the root with child
// and descendant steps, path / negated / conjunctive qualifiers, and one
// text()='k<i>' constant that makes the i-th query differ from every other,
// so a plan cache of any size misses on each.
type queryGen struct {
	g     *dtd.Graph
	types []string
	r     *rand.Rand
	n     int
}

func newQueryGen(d *xpath2sql.DTD, seed int64) *queryGen {
	g := d.BuildGraph()
	return &queryGen{g: g, types: g.Nodes, r: rand.New(rand.NewSource(seed))}
}

// next returns the next query of the stream.
func (q *queryGen) next() string {
	var b strings.Builder
	cur := q.g.Root
	b.WriteString(cur)
	steps := 2 + q.r.Intn(3)
	constAt := q.r.Intn(steps)
	for s := 0; s < steps; s++ {
		cur = q.step(&b, cur, false)
		if s == constAt {
			q.constQual(&b, cur)
		} else if q.r.Intn(3) == 0 {
			b.WriteByte('[')
			q.qual(&b, cur, 2)
			b.WriteByte(']')
		}
	}
	q.n++
	return b.String()
}

// step appends one location step from cur and returns the type it lands on.
func (q *queryGen) step(b *strings.Builder, cur string, relative bool) string {
	kids := q.g.Children(cur)
	if len(kids) == 0 || q.r.Intn(3) == 0 {
		reach := sortedKeys(q.g.Reachable(cur))
		if len(reach) == 0 {
			reach = q.types
		}
		next := reach[q.r.Intn(len(reach))]
		if relative {
			b.WriteString(".//")
		} else {
			b.WriteString("//")
		}
		b.WriteString(next)
		return next
	}
	next := kids[q.r.Intn(len(kids))]
	if !relative {
		b.WriteByte('/')
	}
	b.WriteString(next)
	return next
}

// qual appends a qualifier over context type cur.
func (q *queryGen) qual(b *strings.Builder, cur string, depth int) {
	switch k := q.r.Intn(5); {
	case depth > 0 && k == 0:
		b.WriteString("not(")
		q.qual(b, cur, depth-1)
		b.WriteByte(')')
	case depth > 0 && k == 1:
		q.qual(b, cur, depth-1)
		b.WriteString(" and ")
		q.qual(b, cur, depth-1)
	case depth > 0 && k == 2:
		q.qual(b, cur, depth-1)
		b.WriteString(" or ")
		q.qual(b, cur, depth-1)
	default:
		at := q.step(b, cur, true)
		if q.r.Intn(2) == 0 {
			q.step(b, at, false)
		}
	}
}

// constQual appends the qualifier carrying the stream position. Half are
// negated: on a DTD without text the negated form holds everywhere, which
// keeps a good share of the sampled queries' answers non-empty.
func (q *queryGen) constQual(b *strings.Builder, cur string) {
	c := "text()='k" + strconv.Itoa(q.n) + "'"
	switch q.r.Intn(4) {
	case 0:
		b.WriteString("[" + c + "]")
	case 1:
		b.WriteString("[" + c + " or ")
		q.qual(b, cur, 0)
		b.WriteByte(']')
	default:
		b.WriteString("[not(" + c + ")]")
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k, ok := range m {
		if ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Update-stream operation kinds.
const (
	updInsert = iota
	updDelete
	updText
)

// updateOp is one generated update.
type updateOp struct {
	kind     int
	parent   int    // insert: where
	node     int    // delete / text: which
	fragment string // insert
	value    string // text
}

// updateGen produces one client's update stream: inserts of a small course
// subtree under the document root, deletes of subtrees this same stream
// inserted earlier (so a delete never names a missing node), and text updates
// of cno leaves that were in the document from the start (so no other
// client's delete can remove them), in the ratio 2:1:1.
type updateGen struct {
	r      *rand.Rand
	client string // names the stream in the text it writes
	root   int
	leaves []int // text-update targets, disjoint between clients
	mine   []int // inserted and acknowledged, not yet deleted
	n      int
}

func newUpdateGen(seed int64, client string, root int, leaves []int) *updateGen {
	return &updateGen{r: rand.New(rand.NewSource(seed)), client: client, root: root, leaves: leaves}
}

// courseFragment is the inserted subtree: a conforming course with one
// project, 9 elements.
func courseFragment(tag string) string {
	return "<course><cno>" + tag + "</cno><title>t-" + tag + "</title><prereq></prereq><takenBy></takenBy>" +
		"<project><pno>p-" + tag + "</pno><ptitle>pt</ptitle><required></required></project></course>"
}

const courseFragmentElems = 9

// next draws the next update. With nothing of its own to delete, a delete
// draw becomes an insert; the long-run ratio is unaffected.
func (u *updateGen) next() updateOp {
	u.n++
	tag := fmt.Sprintf("u%s-%d", u.client, u.n)
	switch k := u.r.Intn(4); {
	case k == 2 && len(u.mine) > 0:
		i := u.r.Intn(len(u.mine))
		node := u.mine[i]
		u.mine[i] = u.mine[len(u.mine)-1]
		u.mine = u.mine[:len(u.mine)-1]
		return updateOp{kind: updDelete, node: node}
	case k == 3 && len(u.leaves) > 0:
		return updateOp{kind: updText, node: u.leaves[u.r.Intn(len(u.leaves))], value: tag}
	default:
		return updateOp{kind: updInsert, parent: u.root, fragment: courseFragment(tag)}
	}
}

// inserted records the node ID the store assigned to this stream's insert.
func (u *updateGen) inserted(node int) { u.mine = append(u.mine, node) }

// collection is a multi-document dept collection and where each document
// sits in it.
type collection struct {
	db   *xpath2sql.DB
	docs []collectionDoc
}

type collectionDoc struct {
	doc    *xpath2sql.Document
	root   int // the document root's node ID in the collection
	offset int // collection ID = document ID + offset
	elems  int
}

// buildCollection generates n dept documents of about elems elements each,
// from distinct seeds, and merges them into one collection database.
func buildCollection(d *xpath2sql.DTD, seed int64, n, elems int) (*collection, error) {
	c := &collection{}
	var dbs []*xpath2sql.DB
	offset := 0
	for i := 0; i < n; i++ {
		text, _, err := generateDept(d, subSeed(seed, "collection-doc-"+strconv.Itoa(i)), elems)
		if err != nil {
			return nil, err
		}
		doc, err := xpath2sql.ParseXML(text)
		if err != nil {
			return nil, err
		}
		db, err := xpath2sql.Shred(doc, d)
		if err != nil {
			return nil, err
		}
		dbs = append(dbs, db)
		c.docs = append(c.docs, collectionDoc{doc: doc, root: 1 + offset, offset: offset, elems: doc.Size()})
		offset += doc.Size()
	}
	db, err := cluster.BuildCollection(d, dbs)
	if err != nil {
		return nil, err
	}
	c.db = db
	return c, nil
}

// oracleIDs answers a query with the native evaluator, the repository's
// reference semantics, shifted into collection IDs.
func oracleIDs(q xpath2sql.Query, doc *xpath2sql.Document, offset int) []int {
	ids := xpath2sql.EvalXPath(q, doc)
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id) + offset
	}
	return out
}
