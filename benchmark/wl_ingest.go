package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"xpath2sql"
	"xpath2sql/internal/workload"
)

// ingestBytes is the size of the document ingest-stream loads. The issue
// asked for 32 MiB; at this machine's speed that is over a second a pass and
// 600 MB resident, which the driver's per-run budget does not leave room
// for, so the document is a quarter of that and the run makes more passes.
func (h *harness) ingestBytes() int64 {
	if h.cfg.smoke {
		return 128 << 10
	}
	return 8 << 20
}

// ingestStream is the ingest-stream workload: bulk-loading a document from
// a file with the streaming shredder.
type ingestStream struct {
	h     *harness
	dtd   *xpath2sql.DTD
	path  string
	stats xpath2sql.GenStreamStats
	genS  float64

	passes    int
	firstHash [sha256.Size]byte
	lastDB    *xpath2sql.DB
}

func buildIngestStream(h *harness) (instance, error) {
	d, err := xpath2sql.ParseDTD(workload.DeptText)
	if err != nil {
		return nil, err
	}
	dir, err := h.tempDir("ingest")
	if err != nil {
		return nil, err
	}
	w := &ingestStream{h: h, dtd: d, path: filepath.Join(dir, "doc.xml")}
	// The document goes to a file first: reading it back keeps the
	// generator off the cores the loaders are timed on.
	f, err := os.Create(w.path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	gen, err := timed(func() (err error) {
		w.stats, err = xpath2sql.StreamGenerate(bw, d, xpath2sql.GenStreamOptions{
			XL: 8, XR: 6, Seed: subSeed(h.cfg.seed, "ingest-doc"), TargetBytes: h.ingestBytes(),
		})
		return err
	})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	w.genS = gen.Seconds()
	return w, nil
}

// shred loads the file once with the given worker count.
func (w *ingestStream) shred(workers int) (*xpath2sql.DB, time.Duration, error) {
	f, err := os.Open(w.path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var db *xpath2sql.DB
	d, err := timed(func() (err error) {
		db, err = xpath2sql.StreamShred(f, w.dtd, xpath2sql.ShredStreamOptions{Workers: workers})
		return err
	})
	return db, d, err
}

// check is the per-pass answer check: every generated element loaded, and an
// interval for every one of them.
func (w *ingestStream) check(db *xpath2sql.DB) error {
	if int64(db.NumNodes()) != w.stats.Elements {
		return fmt.Errorf("%w: loaded %d nodes, the generator wrote %d elements", errWrongAnswer, db.NumNodes(), w.stats.Elements)
	}
	if !db.HasIntervals() || db.IntervalCount() != db.NumNodes() {
		return fmt.Errorf("%w: %d intervals for %d nodes", errWrongAnswer, db.IntervalCount(), db.NumNodes())
	}
	return nil
}

func imageHash(db *xpath2sql.DB) ([sha256.Size]byte, error) {
	h := sha256.New()
	var sum [sha256.Size]byte
	if err := xpath2sql.SaveDB(db, h); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// pass is one timed operation: a whole document ingested.
func (w *ingestStream) pass(context.Context) (time.Duration, error) {
	w.lastDB = nil // the previous pass's database is garbage before this one allocates
	db, d, err := w.shred(runtime.NumCPU())
	if err != nil {
		return d, err
	}
	if err := w.check(db); err != nil {
		return d, err
	}
	if w.passes == 0 {
		// Hashing the Save image costs several passes' worth of time, so
		// only the first and the last pass are compared byte for byte.
		if w.firstHash, err = imageHash(db); err != nil {
			return d, err
		}
	}
	w.passes++
	w.lastDB = db
	return d, nil
}

func (w *ingestStream) load(d, _ time.Duration) (*loadResult, error) {
	ctx := context.Background()
	if w.passes == 0 {
		if _, err := w.pass(ctx); err != nil { // warm-up, and the reference image
			return nil, err
		}
	}
	return timedLoop(ctx, d, opQuery, w.pass)
}

// verify requires the last pass's Save image to equal the first's.
func (w *ingestStream) verify() (checked, wrong int, err error) {
	if w.lastDB == nil {
		return 0, 0, nil
	}
	last, err := imageHash(w.lastDB)
	if err != nil {
		return 0, 0, err
	}
	if last != w.firstHash {
		fmt.Fprintf(diag, "benchmark: pass %d's Save image differs from the first pass's\n", w.passes)
		return 1, 1, nil
	}
	return 1, 0, nil
}

func (w *ingestStream) close() error {
	w.lastDB = nil
	return os.RemoveAll(filepath.Dir(w.path))
}

func (w *ingestStream) trace(rec *recorder, m layerMetrics) error {
	ctx := context.Background()
	if _, err := loadedCounters(m, func() (*loadResult, error) {
		if _, err := w.pass(ctx); err != nil {
			return nil, err
		}
		return timedLoop(ctx, w.h.loadedPhase(), opQuery, w.pass)
	}); err != nil {
		return err
	}
	w.lastDB = nil

	reps := 3
	if w.h.cfg.smoke {
		reps = 1
	}
	nproc := runtime.NumCPU()
	var w1, wN []time.Duration
	var hash1, hashN [sha256.Size]byte
	var db *xpath2sql.DB
	for i := 0; i < reps; i++ {
		for _, workers := range []int{1, nproc} {
			db = nil
			runtime.GC()
			var d time.Duration
			var err error
			if db, d, err = w.shred(workers); err != nil {
				return err
			}
			if err := w.check(db); err != nil {
				return err
			}
			if workers == 1 {
				w1 = append(w1, d)
			} else {
				wN = append(wN, d)
				rec.op("shred.stream_shred", d)
			}
			if i == 0 {
				sum, err := imageHash(db)
				if err != nil {
					return err
				}
				if workers == 1 {
					hash1 = sum
				} else {
					hashN = sum
				}
			}
		}
	}
	if hash1 != hashN || hashN != w.firstHash {
		return fmt.Errorf("%w: Save images differ between 1 and %d workers or between passes", errWrongAnswer, nproc)
	}
	m["shred.stream_s_w1"] = medianUS(w1) / 1e6
	m["shred.stream_s_wN"] = medianUS(wN) / 1e6
	if m["shred.stream_s_wN"] > 0 {
		m["shred.parallel_speedup"] = m["shred.stream_s_w1"] / m["shred.stream_s_wN"]
		m["shred.elems_per_s"] = float64(w.stats.Elements) / m["shred.stream_s_wN"]
	}
	m["xmlgen.generate_mb_per_s"] = float64(w.stats.Bytes) / 1e6 / w.genS

	// The Save image and back, and what the database holds resident.
	save, load, db, err := saveAndLoad(m, db, w.stats.Bytes)
	if err != nil {
		return err
	}
	rec.op("rdb.save", save)
	rec.op("rdb.load", load)
	if err := w.check(db); err != nil {
		return fmt.Errorf("after LoadDB: %w", err)
	}
	db = nil

	// The same layer's tree path, for scale: parse the whole text, then
	// shred the tree.
	text, err := os.ReadFile(w.path)
	if err != nil {
		return err
	}
	var tree *xpath2sql.DB
	d, err := timed(func() error {
		doc, err := xpath2sql.ParseXML(string(text))
		if err != nil {
			return err
		}
		tree, err = xpath2sql.Shred(doc, w.dtd)
		return err
	})
	if err != nil {
		return err
	}
	m["shred.tree_s"] = d.Seconds()
	if sum, err := imageHash(tree); err != nil {
		return err
	} else if sum != hashN {
		return fmt.Errorf("%w: the tree shredder's Save image differs from the streaming shredder's", errWrongAnswer)
	}
	m["trace.unattributed_share"] = rec.unattributedShare()
	return nil
}
