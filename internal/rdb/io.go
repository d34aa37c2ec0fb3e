package rdb

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Save writes the database in a line-oriented text format, so a document
// shredded once can be reused across tool invocations:
//
//	R <relation> <F> <T> <quoted V>
//	N <id> <quoted label> <quoted V>       (node catalog entry)
//	O <id> <begin> <end> <level>           (document-order interval, v2)
//	D <fingerprint>                        (shredding DTD fingerprint, v2)
//
// Relations and tuples are written in deterministic order, so Save∘Load is
// the identity on the text form. The O/D records are format version 2: a
// pre-interval (v1) image loads with no encoding, and boot-time owners (e.g.
// store.Open) call RebuildIntervals to give old snapshots the fast path.
//
// O records hold dense document-order ranks, not the labels in memory: begin
// is written as the number of begins below it, end as the number of begins
// below end. The image is therefore canonical — two databases holding the same
// document save the same bytes whatever slack a live store's labels carry —
// and a dense encoding (every bulk load's) is written as it is.
func (db *DB) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var names []string
	for name := range db.Rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rel := db.Rels[name]
		tuples := append([]Tuple(nil), rel.Tuples()...)
		sort.Slice(tuples, func(i, j int) bool {
			if tuples[i].F != tuples[j].F {
				return tuples[i].F < tuples[j].F
			}
			return tuples[i].T < tuples[j].T
		})
		for _, t := range tuples {
			if _, err := fmt.Fprintf(bw, "R %s %d %d %s\n", name, t.F, t.T, strconv.Quote(t.V)); err != nil {
				return err
			}
		}
		// Empty relations still need declaring so Load restores them.
		if len(tuples) == 0 {
			if _, err := fmt.Fprintf(bw, "E %s\n", name); err != nil {
				return err
			}
		}
	}
	st := db.nodes.Load()
	var err error
	st.tab.eachNode(func(id int, parent, val int32) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "N %d %d %s %s\n",
				id, parent, strconv.Quote(db.Syms.Str(db.Labels[id])), strconv.Quote(db.Syms.Str(val)))
		}
	})
	if err != nil {
		return err
	}
	if st.labelled {
		// A bulk load's begins are 0…n−1 and are their own ranks: the set-up
		// checkpoint of a freshly loaded store pays no sort.
		n := int64(st.tab.labels)
		dense := true
		st.tab.eachLabel(func(_ int, iv NodeInterval) { dense = dense && 0 <= iv.Begin && iv.Begin < n })
		var begins []int64
		if !dense {
			begins = make([]int64, 0, n)
			st.tab.eachLabel(func(_ int, iv NodeInterval) { begins = append(begins, iv.Begin) })
			slices.Sort(begins)
		}
		rank := func(label int64) int64 {
			if dense {
				return min(max(label, 0), n)
			}
			i, _ := slices.BinarySearch(begins, label)
			return int64(i)
		}
		st.tab.eachLabel(func(id int, iv NodeInterval) {
			if err == nil {
				_, err = fmt.Fprintf(bw, "O %d %d %d %d\n", id, rank(iv.Begin), rank(iv.End), iv.Level)
			}
		})
		if err != nil {
			return err
		}
	}
	if db.DTDFP != "" {
		if _, err := fmt.Fprintf(bw, "D %s\n", db.DTDFP); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ErrDuplicateNode is wrapped by Load's error for an image that records one
// node twice in its catalog (an N record) or its interval encoding (an O
// record); the message names the line of the second record.
var ErrDuplicateNode = errors.New("node recorded twice")

// Load reads a database written by Save. Blank lines and lines starting
// with '#' are skipped, so callers (e.g. the document store's snapshots)
// may prefix the Save body with their own commented header.
//
// An image a database cannot hold is refused: a node ID outside 1…2³¹−1, an
// F or a parent outside 0…2³¹−1 (0 is the virtual root), or a catalog whose
// parent chains run in a cycle, which would never reach the root.
//
// Tuples are appended without a probe while they arrive as Save writes them:
// a run of one relation's lines, ascending on (F, T), that began on an empty
// relation, where no tuple can repeat one before it. Any other tuple — a
// relation's lines split into runs, or out of order — is probed through the
// relation's T index, and a repeated one is dropped.
func Load(r io.Reader) (*DB, error) {
	db := NewDB()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	var iv *IntervalBuilder
	var run *Relation // the relation the previous R line wrote
	var last row      // and its tuple
	sorted := false   // run's tuples so far are ascending onto an empty relation
	// The symbol of every element type read, by its quoted form.
	labels := map[string]int32{}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		kind, rest, _ := strings.Cut(line, " ")
		switch kind {
		case "R":
			name, rest2, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("rdb: line %d: malformed tuple", lineNo)
			}
			fs, rest3, ok := strings.Cut(rest2, " ")
			if !ok {
				return nil, fmt.Errorf("rdb: line %d: malformed tuple", lineNo)
			}
			ts, vq, ok := strings.Cut(rest3, " ")
			if !ok {
				return nil, fmt.Errorf("rdb: line %d: malformed tuple", lineNo)
			}
			f, err := parseID(fs, 0)
			if err != nil {
				return nil, fmt.Errorf("rdb: line %d: %v", lineNo, err)
			}
			t, err := parseID(ts, 1)
			if err != nil {
				return nil, fmt.Errorf("rdb: line %d: %v", lineNo, err)
			}
			v, err := strconv.Unquote(vq)
			if err != nil {
				return nil, fmt.Errorf("rdb: line %d: bad value %q: %v", lineNo, vq, err)
			}
			w := row{f: f, t: t, v: db.sym(v)}
			if run == nil || run.Name != name {
				run = db.Rel(name)
				sorted = run.Len() == 0
			} else {
				sorted = sorted && (w.f > last.f || w.f == last.f && w.t > last.t)
			}
			if sorted {
				run.appendNew(w)
			} else {
				run.addRow(w)
			}
			last = w
		case "E":
			db.Rel(strings.TrimSpace(rest))
		case "N":
			parts := splitN(rest, 3)
			if parts == nil {
				return nil, fmt.Errorf("rdb: line %d: malformed node entry", lineNo)
			}
			id, err := parseID(parts[0], 1)
			if err != nil {
				return nil, fmt.Errorf("rdb: line %d: %v", lineNo, err)
			}
			parent, err := parseID(parts[1], 0)
			if err != nil {
				return nil, fmt.Errorf("rdb: line %d: %v", lineNo, err)
			}
			labelQ, valQ, ok := strings.Cut(parts[2], " ")
			if !ok {
				return nil, fmt.Errorf("rdb: line %d: malformed node entry", lineNo)
			}
			label, ok := labels[labelQ]
			if !ok {
				typ, err := strconv.Unquote(labelQ)
				if err != nil {
					return nil, fmt.Errorf("rdb: line %d: %v", lineNo, err)
				}
				label = db.Syms.Intern(typ)
				labels[strings.Clone(labelQ)] = label
			}
			val, err := strconv.Unquote(valQ)
			if err != nil {
				return nil, fmt.Errorf("rdb: line %d: %v", lineNo, err)
			}
			tab := db.nodes.Load().tab
			if tab.has(int(id)) {
				return nil, fmt.Errorf("rdb: line %d: a second N record for node %d: %w", lineNo, id, ErrDuplicateNode)
			}
			tab.put(int(id), parent, db.sym(val))
			db.Labels[int(id)] = label
		case "O":
			parts := strings.Fields(rest)
			if len(parts) != 4 {
				return nil, fmt.Errorf("rdb: line %d: malformed interval entry", lineNo)
			}
			id, err := parseID(parts[0], 1)
			if err != nil {
				return nil, fmt.Errorf("rdb: line %d: %v", lineNo, err)
			}
			begin, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("rdb: line %d: %v", lineNo, err)
			}
			end, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("rdb: line %d: %v", lineNo, err)
			}
			level, err := strconv.ParseInt(parts[3], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("rdb: line %d: %v", lineNo, err)
			}
			if end < begin {
				return nil, fmt.Errorf("rdb: line %d: inverted interval [%d, %d)", lineNo, begin, end)
			}
			if level < 0 {
				return nil, fmt.Errorf("rdb: line %d: negative level %d", lineNo, level)
			}
			if iv == nil {
				iv = db.NewIntervalBuilder()
			}
			if _, ok := iv.tab.get(int(id)); ok {
				return nil, fmt.Errorf("rdb: line %d: a second O record for node %d: %w", lineNo, id, ErrDuplicateNode)
			}
			iv.Set(int(id), NodeInterval{Begin: begin, End: end, Level: int32(level)})
		case "D":
			db.DTDFP = strings.TrimSpace(rest)
		default:
			return nil, fmt.Errorf("rdb: line %d: unknown record kind %q", lineNo, kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := checkParentChains(db.nodes.Load().tab); err != nil {
		return nil, err
	}
	if iv != nil {
		iv.Adopt()
	}
	return db, nil
}

// parseID parses a node ID of a record: an integer in lo…2³¹−1, where lo is 1
// for a node and 0 for an F or a parent, which may be the virtual root.
func parseID(s string, lo int64) (int32, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if n < lo || n > math.MaxInt32 {
		return 0, fmt.Errorf("node ID %d outside %d…%d", n, lo, math.MaxInt32)
	}
	return int32(n), nil
}

// checkParentChains refuses a catalog with a cycle of parents, naming a node
// on it. A chain ends at the virtual root 0 or at a node outside the catalog,
// and a cycle needs a node whose parent's ID is not below its own, so only
// such nodes start a walk; a node whose chain is known to end is not walked
// again, which keeps the pass O(nodes). A shredded document numbers parents
// before children, so the pass starts no walk on it.
func checkParentChains(tab *nodeTable) error {
	const onChain, ends = 1, 2
	var state map[int32]uint8
	var err error
	tab.eachNode(func(id int, parent, _ int32) {
		if err != nil || int(parent) < id {
			return
		}
		if state == nil {
			state = map[int32]uint8{}
		}
		var chain []int32
		cur := int32(id)
		for cur != 0 && tab.has(int(cur)) && state[cur] != ends {
			if state[cur] == onChain {
				err = fmt.Errorf("rdb: node %d: its parent chain runs in a cycle through node %d", id, cur)
				return
			}
			state[cur] = onChain
			chain = append(chain, cur)
			cur = tab.parentOf(int(cur))
		}
		for _, n := range chain {
			state[n] = ends
		}
	})
	return err
}

// splitN cuts the string into n fields, the last one keeping the remainder.
func splitN(s string, n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n-1; i++ {
		head, rest, ok := strings.Cut(s, " ")
		if !ok {
			return nil
		}
		out = append(out, head)
		s = rest
	}
	return append(out, s)
}
