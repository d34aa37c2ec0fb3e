package rdb

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ImageBufSize is the buffer Save writes and Load reads an image through; a
// caller that hands Load a *bufio.Reader gives it one of this size.
const ImageBufSize = 64 << 10

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
//
// A record is appended to one reused line buffer — its numbers by
// strconv.AppendInt, its values by strconv.AppendQuote — and the line is
// copied into a 64 KiB buffered writer. A relation's live rows are copied
// once and sorted on (F, T).
func (db *DB) Save(w io.Writer) error {
	iw := &imageWriter{bw: bufio.NewWriterSize(w, ImageBufSize), syms: db.Syms}
	names := make([]string, 0, len(db.Rels))
	for name := range db.Rels {
		names = append(names, name)
	}
	slices.Sort(names)
	var rows []row
	for _, name := range names {
		rel := db.Rels[name]
		rows = rows[:0]
		for i, w := range rel.rows {
			if !rel.isDead(i) {
				rows = append(rows, w)
			}
		}
		// f·2³² + t orders rows on (F, T), whatever their signs.
		slices.SortFunc(rows, func(a, b row) int {
			return cmp.Compare(int64(a.f)<<32+int64(a.t), int64(b.f)<<32+int64(b.t))
		})
		for _, w := range rows {
			b := appendField(append(iw.line[:0], 'R'), name)
			b = appendNum(appendNum(b, int64(w.f)), int64(w.t))
			if err := iw.emit(iw.appendQuoted(b, w.v)); err != nil {
				return err
			}
		}
		// Empty relations still need declaring so Load restores them.
		if len(rows) == 0 {
			if err := iw.emit(appendField(append(iw.line[:0], 'E'), name)); err != nil {
				return err
			}
		}
	}
	st := db.nodes.Load()
	var err error
	st.tab.eachNode(func(id int, parent, val, typ int32) {
		if err == nil {
			b := appendNum(appendNum(append(iw.line[:0], 'N'), int64(id)), int64(parent))
			err = iw.emit(iw.appendQuoted(iw.appendQuoted(b, typ), val))
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
				b := appendNum(append(iw.line[:0], 'O'), int64(id))
				b = appendNum(appendNum(b, rank(iv.Begin)), rank(iv.End))
				err = iw.emit(appendNum(b, int64(iv.Level)))
			}
		})
		if err != nil {
			return err
		}
	}
	if db.DTDFP != "" {
		if err := iw.emit(appendField(append(iw.line[:0], 'D'), db.DTDFP)); err != nil {
			return err
		}
	}
	return iw.bw.Flush()
}

// imageWriter is Save's state: the line being written, reused by every
// record, and the symbols its values are read from.
type imageWriter struct {
	bw   *bufio.Writer
	line []byte
	syms *Interner
}

// appendQuoted appends a space and the strconv.Quote form of sym.
func (iw *imageWriter) appendQuoted(b []byte, sym int32) []byte {
	return strconv.AppendQuote(append(b, ' '), iw.syms.Str(sym))
}

// emit ends the record b, built on iw.line, and writes it.
func (iw *imageWriter) emit(b []byte) error {
	iw.line = append(b, '\n')
	_, err := iw.bw.Write(iw.line)
	return err
}

func appendField(b []byte, s string) []byte { return append(append(b, ' '), s...) }

// appendNum appends a space and n.
func appendNum(b []byte, n int64) []byte { return strconv.AppendInt(append(b, ' '), n, 10) }

// ErrDuplicateNode is wrapped by Load's error for an image that records one
// node twice in its catalog (an N record) or its interval encoding (an O
// record); the message names the line of the second record.
var ErrDuplicateNode = errors.New("node recorded twice")

// Load reads a database written by Save. Blank lines and lines starting
// with '#' are skipped, so callers (e.g. the document store's snapshots)
// may prefix the Save body with their own commented header. A line ends at
// '\n', and a '\r' before it is dropped; a line may be of any length.
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
//
// A node's type goes to its node-table row alone: the loaded database's
// Labels map is empty.
//
// Lines are parsed in place from a buffered reader — r itself when it is a
// *bufio.Reader — and numbers from their bytes. A quoted value is looked up
// by its quoted bytes, and unquoted and interned the first time it is seen:
// what a record costs is a lookup, and a distinct value one string.
func Load(r io.Reader) (*DB, error) {
	db := NewDB()
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, ImageBufSize)
	}
	ir := &imageReader{br: br, quoted: map[string]int32{}, strs: []string{""}}
	tab := db.nodes.Load().tab
	var iv *IntervalBuilder
	var run *Relation // the relation the previous R line wrote
	var last row      // and its tuple
	sorted := false   // run's tuples so far are ascending onto an empty relation
	for lineNo := 1; ; lineNo++ {
		line, ok := ir.next()
		if !ok {
			break
		}
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		kind, rest, _ := bytes.Cut(line, space)
		var op byte
		if len(kind) == 1 {
			op = kind[0]
		}
		switch op {
		case 'R':
			name, f, t, vq, err := readTuple(rest)
			if err != nil {
				return nil, fmt.Errorf("rdb: line %d: %v", lineNo, err)
			}
			v, err := ir.sym(vq)
			if err != nil {
				return nil, fmt.Errorf("rdb: line %d: bad value %q: %v", lineNo, vq, err)
			}
			w := row{f: f, t: t, v: v}
			if run == nil || run.Name != string(name) {
				run = db.Rel(string(name))
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
		case 'E':
			db.Rel(strings.TrimSpace(string(rest)))
		case 'N':
			id, parent, labelQ, valQ, err := readNode(rest)
			if err != nil {
				return nil, fmt.Errorf("rdb: line %d: %v", lineNo, err)
			}
			label, err := ir.sym(labelQ)
			if err != nil {
				return nil, fmt.Errorf("rdb: line %d: %v", lineNo, err)
			}
			val, err := ir.sym(valQ)
			if err != nil {
				return nil, fmt.Errorf("rdb: line %d: %v", lineNo, err)
			}
			if tab.has(int(id)) {
				return nil, fmt.Errorf("rdb: line %d: a second N record for node %d: %w", lineNo, id, ErrDuplicateNode)
			}
			tab.put(int(id), parent, val, label)
		case 'O':
			id, label, err := ir.readInterval(rest)
			if err != nil {
				return nil, fmt.Errorf("rdb: line %d: %v", lineNo, err)
			}
			if iv == nil {
				iv = db.NewIntervalBuilder()
			}
			if _, ok := iv.tab.get(int(id)); ok {
				return nil, fmt.Errorf("rdb: line %d: a second O record for node %d: %w", lineNo, id, ErrDuplicateNode)
			}
			iv.Set(int(id), label)
		case 'D':
			db.DTDFP = strings.TrimSpace(string(rest))
		default:
			return nil, fmt.Errorf("rdb: line %d: unknown record kind %q", lineNo, kind)
		}
	}
	if ir.err != nil {
		return nil, ir.err
	}
	if err := checkParentChains(tab); err != nil {
		return nil, err
	}
	db.Syms.fill(ir.strs, nil)
	if iv != nil {
		iv.Adopt()
	}
	return db, nil
}

// imageReader is Load's state: the input, the buffers a line is read into,
// and the dictionary read so far, which the database's interner is given
// whole once the image is read — nothing reads it before.
type imageReader struct {
	br    *bufio.Reader
	long  []byte   // a line longer than br's buffer, assembled
	parts [][]byte // an O record's fields
	err   error    // a read error other than io.EOF
	// quoted holds the symbol of every quoted value read, by its quoted
	// form; strs is the dictionary, symbol i being strs[i]. ids, the symbols
	// by their strings, is built only once a value with an escape is read:
	// until then a new quoted form is a new string.
	quoted map[string]int32
	strs   []string
	ids    map[string]int32
}

// next returns the next line without its '\n' and a '\r' before it, valid
// until the following call; false at the end of the input or on a read error.
func (ir *imageReader) next() ([]byte, bool) {
	line, err := ir.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		ir.long = append(ir.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = ir.br.ReadSlice('\n')
			ir.long = append(ir.long, line...)
		}
		line = ir.long
	}
	switch {
	case err != nil && err != io.EOF:
		ir.err = err
		return nil, false
	case len(line) == 0:
		return nil, false
	}
	if n := len(line); line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, true
}

// sym returns the symbol of a quoted value: the one its quoted form was given
// when first read, else its string's, else a new one. A double-quoted value
// without an escape, a newline or another double quote, and of valid UTF-8,
// is its own text, as strconv.Unquote finds; any other goes through
// strconv.Unquote.
func (ir *imageReader) sym(q []byte) (int32, error) {
	if len(q) == 2 && q[0] == '"' && q[1] == '"' {
		return 0, nil // the empty string, the value of most elements
	}
	if s, ok := ir.quoted[string(q)]; ok {
		return s, nil
	}
	key := string(q)
	var v string
	if plainQuoted(q) && utf8.Valid(q[1:len(q)-1]) {
		v = key[1 : len(q)-1]
	} else {
		var err error
		if v, err = strconv.Unquote(key); err != nil {
			return 0, err
		}
		if ir.ids == nil {
			ir.ids = make(map[string]int32, len(ir.strs))
			for i, s := range ir.strs {
				ir.ids[s] = int32(i)
			}
		}
	}
	s, ok := ir.ids[v]
	if !ok {
		s = int32(len(ir.strs))
		ir.strs = append(ir.strs, v)
		if ir.ids != nil {
			ir.ids[v] = s
		}
	}
	ir.quoted[key] = s
	return s, nil
}

var (
	errTuple    = errors.New("malformed tuple")
	errNode     = errors.New("malformed node entry")
	errInterval = errors.New("malformed interval entry")
)

// space separates a record's fields.
var space = []byte{' '}

// readTuple reads an R record after its kind: the relation's name, F, T and
// the quoted V.
func readTuple(b []byte) (name []byte, f, t int32, vq []byte, err error) {
	name, b, ok1 := bytes.Cut(b, space)
	fs, b, ok2 := bytes.Cut(b, space)
	ts, vq, ok3 := bytes.Cut(b, space)
	if !ok1 || !ok2 || !ok3 {
		return nil, 0, 0, nil, errTuple
	}
	if f, err = parseID(fs, 0); err == nil {
		t, err = parseID(ts, 1)
	}
	return name, f, t, vq, err
}

// plainQuoted reports whether q is a double-quoted string without an escape,
// a newline or another double quote inside.
func plainQuoted(q []byte) bool {
	n := len(q)
	return n >= 2 && q[0] == '"' && q[n-1] == '"' && bytes.IndexAny(q[1:n-1], "\"\\\n") < 0
}

// readNode reads an N record after its kind: the node's ID, its parent's,
// and its quoted element type and value. The type is read whole, as
// strconv.QuotedPrefix finds it — it may hold a space — unless it ends at the
// first space with no escape inside, which is the same.
func readNode(b []byte) (id, parent int32, labelQ, valQ []byte, err error) {
	ids, b, ok1 := bytes.Cut(b, space)
	ps, b, ok2 := bytes.Cut(b, space)
	if !ok1 || !ok2 {
		return 0, 0, nil, nil, errNode
	}
	if id, err = parseID(ids, 1); err != nil {
		return 0, 0, nil, nil, err
	}
	if parent, err = parseID(ps, 0); err != nil {
		return 0, 0, nil, nil, err
	}
	n := bytes.IndexByte(b, ' ')
	if n < 0 || !plainQuoted(b[:n]) {
		q, qerr := strconv.QuotedPrefix(string(b))
		if n = len(q); qerr != nil || n == len(b) || b[n] != ' ' {
			return 0, 0, nil, nil, errNode
		}
	}
	return id, parent, b[:n], b[n+1:], nil
}

// readInterval reads an O record after its kind: the node's ID and label.
func (ir *imageReader) readInterval(b []byte) (int32, NodeInterval, error) {
	parts := ir.fields(b)
	if len(parts) != 4 {
		return 0, NodeInterval{}, errInterval
	}
	id, err := parseID(parts[0], 1)
	var begin, end, level int64
	if err == nil {
		begin, err = parseInt(parts[1], 64)
	}
	if err == nil {
		end, err = parseInt(parts[2], 64)
	}
	if err == nil {
		level, err = parseInt(parts[3], 32)
	}
	if err != nil {
		return 0, NodeInterval{}, err
	}
	if end < begin {
		return 0, NodeInterval{}, fmt.Errorf("inverted interval [%d, %d)", begin, end)
	}
	if level < 0 {
		return 0, NodeInterval{}, fmt.Errorf("negative level %d", level)
	}
	return id, NodeInterval{Begin: begin, End: end, Level: int32(level)}, nil
}

// fields splits b as strings.Fields does, into a slice reused across calls.
func (ir *imageReader) fields(b []byte) [][]byte {
	parts, start := ir.parts[:0], -1
	for i, c := range b {
		switch {
		case c >= utf8.RuneSelf:
			return bytes.Fields(b) // Unicode white space separates fields too
		case asciiSpace[c] != 0:
			if start >= 0 {
				parts, start = append(parts, b[start:i]), -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		parts = append(parts, b[start:])
	}
	ir.parts = parts
	return parts
}

// asciiSpace marks the ASCII bytes strings.Fields splits on.
var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// digits reads b whole as 1 to 9 digits, the form Save writes a number in;
// ok is false for any other b.
func digits(b []byte) (n int64, ok bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// parseInt is strconv.ParseInt(string(b), 10, bitSize), reading the digits
// of Save's numbers without the string.
func parseInt(b []byte, bitSize int) (int64, error) {
	if n, ok := digits(b); ok {
		return n, nil
	}
	return strconv.ParseInt(string(b), 10, bitSize)
}

// parseID parses a node ID of a record: an integer in lo…2³¹−1, where lo is 1
// for a node and 0 for an F or a parent, which may be the virtual root.
func parseID(b []byte, lo int64) (int32, error) {
	n, err := parseInt(b, 64)
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
	tab.eachNode(func(id int, parent, _, _ int32) {
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
