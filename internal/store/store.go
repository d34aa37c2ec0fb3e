// Package store is the live document store: it wraps the shredded database
// in an updatable, durable, snapshot-isolated layer so the query service can
// mutate documents while queries keep running.
//
// Data model. The store holds the per-type edge relations R_A(F, T, V) and
// node catalog produced by shredding (τd, §2.3) and maintains them
// incrementally under three update operations — InsertSubtree, DeleteSubtree
// and UpdateText — each validated against the DTD before it is applied (the
// mutated document must still conform; only the touched parent and, for
// inserts, the new subtree's interior need re-checking).
//
// Concurrency. One writer at a time (serialized by a mutex) builds each new
// database version as a copy-on-write epoch, derived from the current one
// (rdb.DB.Derive): touched relations are cloned (deletes tombstone rows on
// the clone and compact before publication, inserts extend the clone),
// untouched relations are shared, and so is the node table — parents,
// values, types and interval labels — but for the 1024-node chunks the update
// writes. The finished epoch is published with one atomic pointer swap;
// readers pin an epoch with View and never observe a half-applied update,
// take no locks, and keep executing against their pinned epoch even as newer
// ones land.
//
// Durability. Every update is appended to a length-prefixed, CRC-checked
// write-ahead log before it is applied (see wal.go), with a configurable
// fsync policy. Checkpoint writes the current epoch in the rdb.Save text
// format (prefixed with a '#' metadata header) and rotates the log so
// covered segments can be garbage-collected. Open recovers by loading the
// newest snapshot and replaying the WAL tail; insert records carry their
// assigned base node ID, so a recovered store answers queries byte-
// identically to one that never crashed.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/obs"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/xmltree"
)

// Config assembles a Store.
type Config struct {
	// DTD validates every update. Required.
	DTD *dtd.DTD
	// Seed is the initial database (a freshly shredded document), used when
	// neither SnapshotPath nor on-disk state in Dir provides one. The store
	// takes it over: it adds relations to it, and its inserts and deletes
	// write the Labels map every epoch shares with it (a bulk-loaded seed
	// holds none), so one seed serves one store.
	Seed *rdb.DB
	// Dir is the durability directory (WAL segments and snapshots). Empty
	// means ephemeral: updates work, nothing is persisted.
	Dir string
	// SnapshotPath, when set, boots from this snapshot file instead of Seed
	// or the newest snapshot in Dir. The WAL in Dir (if any) is still
	// replayed on top.
	SnapshotPath string
	// Fsync selects the WAL sync policy. Default: FsyncInterval.
	Fsync FsyncPolicy
	// FsyncInterval is the FsyncInterval policy's period. Default: 50ms.
	FsyncInterval time.Duration
	// CheckpointEvery triggers an automatic background checkpoint after this
	// many applied updates. 0 disables automatic checkpoints.
	CheckpointEvery int
	// MinNextID raises the floor of the node-ID allocator: the first inserted
	// subtree gets max(MinNextID, maxNodeID+1). Shard processes serving a
	// slice of a larger collection set disjoint floors so node IDs never
	// collide across shards (cmd/xpathd -node-id-base).
	MinNextID int
}

// Epoch is one immutable published database version. Readers obtain one with
// View and may use its DB for any number of query executions; it never
// changes under them.
type Epoch struct {
	DB *rdb.DB
	// Seq increases by one per applied update.
	Seq uint64
	// LSN is the last WAL record folded into this epoch.
	LSN uint64
}

// UpdateResult describes one applied update.
type UpdateResult struct {
	// NodeID is the root of the inserted subtree (IDs are assigned
	// contiguously in preorder starting here), or the deleted/updated node.
	NodeID int
	// Nodes is the number of nodes inserted or deleted (1 for text updates).
	Nodes int
	// Epoch and LSN identify the first version containing the update.
	Epoch uint64
	LSN   uint64
}

// TxnDelta describes one applied update at the relation level — the input to
// incremental view maintenance (internal/ivm). It names exactly which node
// IDs a transaction touched and carries both database versions: Prev (the
// epoch the update was computed against) and DB (the epoch that contains it).
// Both are immutable published epochs, safe to read from any goroutine.
type TxnDelta struct {
	// Epoch and LSN identify the published version containing the update.
	Epoch uint64
	LSN   uint64
	// Op is one of "insert", "delete", "update_text" (the WAL ops).
	Op string
	// Parent is the parent of the inserted subtree root (inserts only).
	Parent int
	// Root is the subtree root: first inserted ID, the deleted node, or the
	// text-updated node.
	Root int
	// Inserted holds the new node IDs in preorder (inserts only); Deleted
	// holds the removed node IDs in preorder (deletes only).
	Inserted []int
	Deleted  []int
	// Prev and DB are the database versions immediately before and after.
	Prev *rdb.DB
	DB   *rdb.DB
}

// TxnDelta.Op values (the WAL operation names).
const (
	OpInsert     = "insert"
	OpDelete     = "delete"
	OpUpdateText = "update_text"
)

// SetOnApply registers fn to be called after every applied update, in apply
// order, under the writer lock — deltas are delivered exactly once and in
// epoch order. fn must not block (hand off to a queue) and must not call back
// into the store's write path. A nil fn unregisters. Updates replayed from
// the WAL during Open do not invoke the hook; consumers registering after
// Open start from the then-current epoch.
func (s *Store) SetOnApply(fn func(TxnDelta)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onApply = fn
}

// CheckpointInfo describes one written snapshot.
type CheckpointInfo struct {
	Path    string
	LSN     uint64
	Epoch   uint64
	Elapsed time.Duration
}

// Store is the live document store. Build with Open.
type Store struct {
	dtd *dtd.DTD
	// kids lists, per element type, the child types its production mentions:
	// the only relations that can hold a child of a node of that type.
	kids map[string][]childType
	cfg  Config
	dir  string

	cur atomic.Pointer[Epoch]

	mu        sync.Mutex // serializes writers; guards the fields below
	w         *walWriter
	segStart  uint64 // first LSN of the segment w appends to
	lsn       uint64 // last applied LSN
	nextID    int    // next node ID to assign
	sinceCkpt int
	closed    bool
	onApply   func(TxnDelta)

	ckptMu sync.Mutex // serializes snapshot file writes

	inserts      atomic.Int64
	deletes      atomic.Int64
	textUpdates  atomic.Int64
	rejected     atomic.Int64
	walBytes     atomic.Int64
	walRecords   atomic.Int64
	replayed     atomic.Int64
	checkpoints  atomic.Int64
	relabels     atomic.Int64
	relabelled   atomic.Int64
	chunksCopied atomic.Int64
	applyHist    *obs.Histogram

	checkpointFailures atomic.Int64 // automatic checkpoints that failed
}

// Open builds the store: from cfg.SnapshotPath if set, else from the newest
// snapshot in cfg.Dir, else from cfg.Seed; then replays the WAL tail in
// cfg.Dir and opens it for appending. A durable store that has no snapshot
// yet writes one immediately, so recovery never depends on the seed.
func Open(cfg Config) (*Store, error) {
	if cfg.DTD == nil {
		return nil, errors.New("store: Config.DTD is required")
	}
	if cfg.Fsync == "" {
		cfg.Fsync = FsyncInterval
	}
	if _, err := ParseFsyncPolicy(string(cfg.Fsync)); err != nil {
		return nil, err
	}
	if cfg.FsyncInterval <= 0 {
		cfg.FsyncInterval = 50 * time.Millisecond
	}
	s := &Store{dtd: cfg.DTD, kids: childTypes(cfg.DTD), cfg: cfg, dir: cfg.Dir, applyHist: obs.NewHistogram(nil)}

	if s.dir != "" {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, err
		}
	}

	var db *rdb.DB
	var seq, lsn uint64
	next := 0
	switch {
	case cfg.SnapshotPath != "":
		var err error
		if db, seq, lsn, next, err = loadSnapshotFile(cfg.SnapshotPath); err != nil {
			return nil, err
		}
	default:
		if s.dir != "" {
			path, ok, err := latestSnapshot(s.dir)
			if err != nil {
				return nil, err
			}
			if ok {
				if db, seq, lsn, next, err = loadSnapshotFile(path); err != nil {
					return nil, err
				}
			}
		}
		if db == nil {
			if cfg.Seed == nil {
				return nil, errors.New("store: no seed database and no on-disk snapshot")
			}
			db = cfg.Seed
		}
	}
	if next <= 0 {
		next = db.MaxNodeID() + 1
	}
	if next < cfg.MinNextID {
		next = cfg.MinNextID
	}
	// Every DTD type gets a relation now, while we are single-threaded:
	// executors call DB.Rel, which must not mutate the shared map later.
	for _, t := range cfg.DTD.Types() {
		db.Rel(shred.RelName(t))
	}
	// Every published epoch carries a valid document-order interval encoding
	// (the descendant fast path); pre-interval snapshots and raw seeds get
	// theirs here, once, at boot. Updates are validated against cfg.DTD, so
	// the fingerprint stamp stays sound for the store's lifetime.
	if !db.HasIntervals() {
		db.RebuildIntervals()
	}
	if db.DTDFP == "" {
		db.DTDFP = cfg.DTD.Fingerprint()
	}
	s.nextID = next
	s.lsn = lsn
	s.cur.Store(&Epoch{DB: db, Seq: seq, LSN: lsn})

	if s.dir != "" {
		if err := s.replayDir(); err != nil {
			return nil, err
		}
		segs, err := listSegments(s.dir)
		if err != nil {
			return nil, err
		}
		var w *walWriter
		if len(segs) > 0 {
			last := segs[len(segs)-1]
			if w, err = openWALWriter(last.path, cfg.Fsync, cfg.FsyncInterval); err != nil {
				return nil, err
			}
			s.segStart = last.start
		} else {
			s.segStart = s.lsn + 1
			if w, err = openWALWriter(filepath.Join(s.dir, segName(s.segStart)), cfg.Fsync, cfg.FsyncInterval); err != nil {
				return nil, err
			}
		}
		s.w = w
		hasSnap, err := hasSnapshot(s.dir)
		if err != nil {
			return nil, err
		}
		if !hasSnap {
			if _, err := s.Checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// View returns the current epoch. The result is immutable; readers may keep
// using it for as long as they like.
func (s *Store) View() *Epoch { return s.cur.Load() }

// InsertSubtree parses fragment as one XML element, validates it (the
// subtree must conform to the DTD and parentID's production must admit one
// more child of its root type) and inserts it under parentID. Node IDs are
// assigned contiguously in preorder starting at the returned NodeID.
func (s *Store) InsertSubtree(parentID int, fragment string) (UpdateResult, error) {
	return s.apply(walRecord{Op: opInsert, Parent: parentID, Fragment: fragment})
}

// InsertSubtreeAt is InsertSubtree with a caller-chosen base node ID, used by
// a cluster router that allocates IDs globally so every shard assigns from
// one disjoint sequence. base must be at least the store's next free ID;
// after the insert the allocator continues past the new subtree.
func (s *Store) InsertSubtreeAt(parentID int, fragment string, base int) (UpdateResult, error) {
	if base <= 0 {
		return UpdateResult{}, fmt.Errorf("%w: insert base %d must be positive", ErrInvalid, base)
	}
	return s.apply(walRecord{Op: opInsert, Parent: parentID, Fragment: fragment, Base: base})
}

// DeleteSubtree removes the subtree rooted at nodeID. The root element
// cannot be deleted, and the parent's production must admit the remaining
// children.
func (s *Store) DeleteSubtree(nodeID int) (UpdateResult, error) {
	return s.apply(walRecord{Op: opDelete, Node: nodeID})
}

// UpdateText replaces the text value of nodeID.
func (s *Store) UpdateText(nodeID int, value string) (UpdateResult, error) {
	return s.apply(walRecord{Op: opUpdateText, Node: nodeID, Value: value})
}

// apply is the serialized writer entry point for live updates.
func (s *Store) apply(rec walRecord) (UpdateResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return UpdateResult{}, ErrClosed
	}
	res, err := s.applyRecord(rec, true)
	if err != nil {
		if errors.Is(err, ErrInvalid) || errors.Is(err, ErrUnknownNode) || errors.Is(err, ErrBadFragment) {
			s.rejected.Add(1)
		}
		return res, err
	}
	if s.cfg.CheckpointEvery > 0 && s.sinceCkpt >= s.cfg.CheckpointEvery {
		s.sinceCkpt = 0
		go func() {
			// Nobody waits for this one: a failure (a full disk, say) is
			// counted, and the WAL keeps every record until a checkpoint
			// succeeds.
			if _, err := s.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) {
				s.checkpointFailures.Add(1)
			}
		}()
	}
	return res, nil
}

// applyRecord validates rec, logs it (when log is true), folds it into a new
// epoch and publishes the epoch. Callers hold s.mu (or are single-threaded,
// during recovery).
func (s *Store) applyRecord(rec walRecord, log bool) (UpdateResult, error) {
	t0 := time.Now()
	ep := s.cur.Load()
	var frag *xmltree.Document

	switch rec.Op {
	case opInsert:
		var err error
		if frag, err = xmltree.Parse(rec.Fragment); err != nil {
			return UpdateResult{}, fmt.Errorf("%w: %v", ErrBadFragment, err)
		}
		if err := s.validateInsert(ep.DB, rec.Parent, frag); err != nil {
			return UpdateResult{}, err
		}
		if log && rec.Base == 0 {
			rec.Base = s.nextID
		} else if log && rec.Base < s.nextID {
			// A pinned base (InsertSubtreeAt) below the allocator would
			// reassign live IDs.
			return UpdateResult{}, fmt.Errorf("%w: insert base %d below next free node ID %d", ErrInvalid, rec.Base, s.nextID)
		} else if !log && rec.Base < s.nextID {
			// Replay and shipped records may leave allocator gaps (bases are
			// assigned globally across shards) but can never go backwards.
			return UpdateResult{}, fmt.Errorf("%w: insert record base %d below next node ID %d", ErrCorrupt, rec.Base, s.nextID)
		}
	case opDelete:
		if err := s.validateDelete(ep.DB, rec.Node); err != nil {
			return UpdateResult{}, err
		}
	case opUpdateText:
		if err := s.validateUpdateText(ep.DB, rec.Node); err != nil {
			return UpdateResult{}, err
		}
	default:
		return UpdateResult{}, fmt.Errorf("%w: unknown WAL op %q", ErrCorrupt, rec.Op)
	}

	if log {
		rec.LSN = s.lsn + 1
		if s.w != nil {
			n, err := s.w.append(rec)
			if err != nil {
				return UpdateResult{}, fmt.Errorf("store: wal append: %w", err)
			}
			s.walBytes.Add(int64(n))
			s.walRecords.Add(1)
		}
	}

	t := newTxn(ep.DB)
	res := UpdateResult{}
	td := TxnDelta{Op: rec.Op, Root: rec.Node, Prev: ep.DB}
	switch rec.Op {
	case opInsert:
		n := applyInsert(t, rec.Parent, rec.Base, frag)
		res.NodeID, res.Nodes = rec.Base, n
		if rec.Base+n > s.nextID {
			s.nextID = rec.Base + n
		}
		td.Parent, td.Root = rec.Parent, rec.Base
		if s.onApply != nil {
			td.Inserted = make([]int, n)
			for i := range td.Inserted {
				td.Inserted[i] = rec.Base + i
			}
		}
		s.inserts.Add(1)
	case opDelete:
		ids := applyDelete(t, s.kids, rec.Node)
		res.NodeID, res.Nodes = rec.Node, len(ids)
		td.Deleted = ids
		s.deletes.Add(1)
	case opUpdateText:
		applyUpdateText(t, rec.Node, rec.Value)
		res.NodeID, res.Nodes = rec.Node, 1
		s.textUpdates.Add(1)
	}
	t.compact()
	// The new epoch's interval encoding is the previous one's, patched: a text
	// update shares it, a delete's nodes took their labels with them, an insert
	// labels the new subtree out of the slack before its parent's end —
	// relabelling around it only when there is none left. So are the
	// descendant indexes the previous epoch's readers built, but after a
	// relabel. Recovery replays through this same path.
	switch rec.Op {
	case opInsert:
		if n := t.db.DeriveInsert(ep.DB, rec.Parent, rec.Base); n > 0 {
			s.relabels.Add(1)
			s.relabelled.Add(int64(n))
		}
	case opDelete:
		t.db.DeriveDelete(ep.DB, rec.Node)
	case opUpdateText:
		t.db.DeriveText(ep.DB, rec.Node)
	}
	s.chunksCopied.Add(int64(t.db.ChunksCopied()))

	next := &Epoch{DB: t.db, Seq: ep.Seq + 1, LSN: rec.LSN}
	s.lsn = rec.LSN
	s.sinceCkpt++
	s.cur.Store(next)
	res.Epoch, res.LSN = next.Seq, next.LSN
	if s.onApply != nil {
		td.Epoch, td.LSN, td.DB = next.Seq, next.LSN, t.db
		s.onApply(td)
	}
	s.applyHist.Observe(time.Since(t0))
	return res, nil
}

// txn accumulates one update's copy-on-write state: a database derived from
// the parent epoch's, which shares the node catalog with it but for what the
// update writes, and every relation but those the update writes, each cloned
// exactly once, the first time it does.
type txn struct {
	db     *rdb.DB
	cloned map[string]*rdb.Relation
}

func newTxn(old *rdb.DB) *txn {
	return &txn{db: old.Derive(), cloned: map[string]*rdb.Relation{}}
}

// rel makes the relation of an element type the transaction's private clone
// and returns its name.
func (t *txn) rel(label string) string {
	name := shred.RelName(label)
	if _, ok := t.cloned[name]; !ok {
		c := t.db.Rel(name).Clone()
		t.db.Rels[name], t.cloned[name] = c, c
	}
	return name
}

// compact restores the no-tombstone invariant on every touched relation
// before the epoch is published. Each is the transaction's own clone, which no
// reader has seen, so its rows are filtered in place.
func (t *txn) compact() {
	for _, r := range t.cloned {
		r.CompactClone()
	}
}

// applyInsert adds the fragment's nodes (preorder, IDs base, base+1, …) to
// the edge relations and catalog. Returns the node count.
func applyInsert(t *txn, parentID, base int, frag *xmltree.Document) int {
	nodes := frag.Nodes()
	for _, n := range nodes {
		id := base + int(n.ID) - 1
		f := parentID
		if n.Parent != nil {
			f = base + int(n.Parent.ID) - 1
		}
		t.db.InsertLabeled(t.rel(n.Label), n.Label, f, id, n.Val)
	}
	return len(nodes)
}

// applyDelete tombstones every edge of the subtree rooted at nodeID and
// removes its catalog entries. Returns the deleted IDs in preorder.
func applyDelete(t *txn, kids map[string][]childType, nodeID int) []int {
	ids := collectSubtree(t.db, kids, nodeID)
	for _, id := range ids {
		label, _ := t.db.Label(id)
		t.db.Delete(t.rel(label), t.db.Parent(id), id)
	}
	return ids
}

// applyUpdateText rewrites the V attribute of nodeID's edge tuple and its
// catalog value.
func applyUpdateText(t *txn, nodeID int, value string) {
	label, _ := t.db.Label(nodeID)
	t.db.UpdateValue(t.rel(label), t.db.Parent(nodeID), nodeID, value)
}

// childType is one child type of a production and the relation storing it.
type childType struct{ typ, rel string }

func childTypes(d *dtd.DTD) map[string][]childType {
	g := d.BuildGraph()
	kids := make(map[string][]childType, len(g.Nodes))
	for _, typ := range g.Nodes {
		for _, c := range g.Children(typ) {
			kids[typ] = append(kids[typ], childType{c, shred.RelName(c)})
		}
	}
	return kids
}

// collectSubtree returns the IDs of the subtree rooted at id, level by level
// with siblings in ID order, discovered through the edge relations of the
// child types each node's production admits (children of n hold it as F).
func collectSubtree(db *rdb.DB, kids map[string][]childType, id int) []int {
	out := []int{id}
	for i := 0; i < len(out); i++ {
		at := len(out)
		label, _ := db.Label(out[i])
		for _, k := range kids[label] {
			if rel, ok := db.Rels[k.rel]; ok {
				out = rel.AppendChildIDs(out, out[i])
			}
		}
		sort.Ints(out[at:])
	}
	return out
}

// Checkpoint writes the current epoch as a snapshot file, rotates the WAL so
// every covered record lives in garbage-collectable segments, and removes
// superseded snapshots and segments. Readers and writers keep running; only
// the brief segment rotation holds the writer lock.
func (s *Store) Checkpoint() (CheckpointInfo, error) {
	if s.dir == "" {
		return CheckpointInfo{}, ErrNoDurability
	}
	t0 := time.Now()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return CheckpointInfo{}, ErrClosed
	}
	ep := s.cur.Load()
	next := s.nextID
	if s.w != nil && s.segStart <= ep.LSN {
		if err := s.w.close(); err != nil {
			s.mu.Unlock()
			return CheckpointInfo{}, err
		}
		w, err := openWALWriter(filepath.Join(s.dir, segName(ep.LSN+1)), s.cfg.Fsync, s.cfg.FsyncInterval)
		if err != nil {
			// Reopen the previous segment so the store stays writable.
			if old, rerr := openWALWriter(filepath.Join(s.dir, segName(s.segStart)), s.cfg.Fsync, s.cfg.FsyncInterval); rerr == nil {
				s.w = old
			} else {
				s.w = nil
			}
			s.mu.Unlock()
			return CheckpointInfo{}, err
		}
		s.w = w
		s.segStart = ep.LSN + 1
	}
	s.sinceCkpt = 0
	s.mu.Unlock()

	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	path := filepath.Join(s.dir, snapName(ep.LSN))
	if err := writeSnapshotFile(path, ep, next); err != nil {
		return CheckpointInfo{}, err
	}
	s.checkpoints.Add(1)
	s.gc(ep.LSN)
	return CheckpointInfo{Path: path, LSN: ep.LSN, Epoch: ep.Seq, Elapsed: time.Since(t0)}, nil
}

// gc removes snapshots older than lsn and WAL segments fully covered by the
// snapshot at lsn (the log was rotated at lsn+1, so a segment starting at or
// before lsn contains only records ≤ lsn).
func (s *Store) gc(lsn uint64) {
	snaps, _ := filepath.Glob(filepath.Join(s.dir, "snap-*.rdb"))
	for _, p := range snaps {
		if l, ok := parseStamp(filepath.Base(p), "snap-", ".rdb"); ok && l < lsn {
			os.Remove(p)
		}
	}
	segs, err := listSegments(s.dir)
	if err != nil {
		return
	}
	for _, seg := range segs {
		if seg.start <= lsn {
			os.Remove(seg.path)
		}
	}
}

// replayDir replays every WAL record past the loaded snapshot, truncating a
// torn tail on the final segment and rejecting corruption anywhere else.
func (s *Store) replayDir() error {
	segs, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		goodOff, torn, err := readSegment(seg.path, func(rec walRecord) error {
			if rec.LSN <= s.lsn {
				return nil
			}
			if rec.LSN != s.lsn+1 {
				return fmt.Errorf("%w: WAL gap in %s: record LSN %d, want %d",
					ErrCorrupt, seg.path, rec.LSN, s.lsn+1)
			}
			if _, err := s.applyRecord(rec, false); err != nil {
				return fmt.Errorf("store: replay of LSN %d failed: %w", rec.LSN, err)
			}
			s.replayed.Add(1)
			return nil
		})
		if err != nil {
			return err
		}
		if torn {
			if i != len(segs)-1 {
				return fmt.Errorf("%w: torn or corrupt record inside non-final segment %s", ErrCorrupt, seg.path)
			}
			if err := os.Truncate(seg.path, goodOff); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close syncs and closes the WAL. The last published epoch stays readable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.w != nil {
		err := s.w.close()
		s.w = nil
		return err
	}
	return nil
}

// crash abandons the store without flushing or syncing — the unclean-stop
// seam recovery tests use in place of kill -9.
func (s *Store) crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.w != nil {
		_ = s.w.closeNoSync()
		s.w = nil
	}
}

// Stats snapshots the store's counters for the metrics endpoint.
func (s *Store) Stats() obs.StoreStats {
	ep := s.View()
	return obs.StoreStats{
		Epoch:               ep.Seq,
		LSN:                 ep.LSN,
		Nodes:               int64(ep.DB.NumNodes()),
		Inserts:             s.inserts.Load(),
		Deletes:             s.deletes.Load(),
		TextUpdates:         s.textUpdates.Load(),
		Rejected:            s.rejected.Load(),
		WALBytes:            s.walBytes.Load(),
		WALRecords:          s.walRecords.Load(),
		Replayed:            s.replayed.Load(),
		Checkpoints:         s.checkpoints.Load(),
		CheckpointFailures:  s.checkpointFailures.Load(),
		Relabels:            s.relabels.Load(),
		RelabelledNodes:     s.relabelled.Load(),
		CatalogChunksCopied: s.chunksCopied.Load(),
		Apply:               s.applyHist.Snapshot(),
	}
}

// Durable reports whether the store persists updates (a directory is
// configured).
func (s *Store) Durable() bool { return s.dir != "" }

// --- on-disk layout helpers ---------------------------------------------

func segName(startLSN uint64) string { return fmt.Sprintf("wal-%016d.log", startLSN) }
func snapName(lsn uint64) string     { return fmt.Sprintf("snap-%016d.rdb", lsn) }

// parseStamp extracts the decimal stamp from names like wal-<n>.log.
func parseStamp(base, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(base, prefix) || !strings.HasSuffix(base, suffix) {
		return 0, false
	}
	mid := base[len(prefix) : len(base)-len(suffix)]
	var n uint64
	if _, err := fmt.Sscanf(mid, "%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

type segInfo struct {
	path  string
	start uint64
}

// listSegments returns the WAL segments of dir ordered by start LSN.
func listSegments(dir string) ([]segInfo, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	var out []segInfo
	for _, p := range paths {
		if start, ok := parseStamp(filepath.Base(p), "wal-", ".log"); ok {
			out = append(out, segInfo{path: p, start: start})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out, nil
}

// latestSnapshot returns the newest snapshot file in dir, if any.
func latestSnapshot(dir string) (string, bool, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "snap-*.rdb"))
	if err != nil {
		return "", false, err
	}
	best, bestLSN, found := "", uint64(0), false
	for _, p := range paths {
		if l, ok := parseStamp(filepath.Base(p), "snap-", ".rdb"); ok {
			if !found || l > bestLSN {
				best, bestLSN, found = p, l, true
			}
		}
	}
	return best, found, nil
}

func hasSnapshot(dir string) (bool, error) {
	_, ok, err := latestSnapshot(dir)
	return ok, err
}

// HasState reports whether dir holds a snapshot a store could boot from,
// letting callers skip building a seed database (parsing and shredding a
// document) when Open would ignore it anyway.
func HasState(dir string) (bool, error) {
	if dir == "" {
		return false, nil
	}
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		return false, nil
	} else if err != nil {
		return false, err
	}
	return hasSnapshot(dir)
}

const snapHeaderFmt = "# xpath2sql-snapshot v1 seq=%d lsn=%d next=%d"

// writeSnapshotFile persists ep in the rdb.Save format prefixed with the
// store's metadata header, atomically (temp file + rename + directory sync).
func writeSnapshotFile(path string, ep *Epoch, next int) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	werr := func() error {
		if _, err := fmt.Fprintf(f, snapHeaderFmt+"\n", ep.Seq, ep.LSN, next); err != nil {
			return err
		}
		if err := ep.DB.Save(f); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// loadSnapshotFile reads a snapshot written by Checkpoint, or a plain
// rdb.Save file (headerless: LSN 0, next ID derived from the catalog).
func loadSnapshotFile(path string) (db *rdb.DB, seq, lsn uint64, next int, err error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if line, _, ok := bytes.Cut(blob, []byte("\n")); ok {
		var s2, l2 uint64
		var n2 int
		if _, err := fmt.Sscanf(string(line), snapHeaderFmt, &s2, &l2, &n2); err == nil {
			seq, lsn, next = s2, l2, n2
		}
	}
	db, err = rdb.Load(bytes.NewReader(blob))
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("store: snapshot %s: %w", path, err)
	}
	return db, seq, lsn, next, nil
}
