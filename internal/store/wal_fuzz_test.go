package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadSegment hands the WAL frame decoder raw bytes as a segment file.
// Whatever the bytes, readSegment does not panic or fail; the offset it
// returns is a frame boundary no larger than the input, with one record read
// per frame before it and no torn tail only at the input's end; and the
// prefix up to that offset reads back as the same records, untorn.
func FuzzReadSegment(f *testing.F) {
	seg := filepath.Join(f.TempDir(), "wal-1.log")
	w, err := openWALWriter(seg, FsyncNever, 0)
	if err != nil {
		f.Fatal(err)
	}
	for i, r := range []walRecord{
		{LSN: 1, Op: opInsert, Parent: 1, Base: 7, Fragment: "<cno>c</cno>"},
		{LSN: 2, Op: opUpdateText, Node: 7, Value: "x'y"},
		{LSN: 3, Op: opDelete, Node: 7},
	} {
		if _, err := w.append(r); err != nil {
			f.Fatalf("record %d: %v", i, err)
		}
	}
	if err := w.close(); err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(seg)
	if err != nil {
		f.Fatal(err)
	}
	corrupt := append([]byte(nil), clean...)
	corrupt[walFrameHeader+2] ^= 0xff
	f.Add(clean)
	f.Add(clean[:len(clean)-3])
	f.Add(corrupt)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	read := func(t *testing.T, data []byte) ([]walRecord, int64, bool) {
		path := filepath.Join(t.TempDir(), "wal-1.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var recs []walRecord
		off, torn, err := readSegment(path, func(r walRecord) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			t.Fatalf("readSegment: %v", err)
		}
		return recs, off, torn
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, off, torn := read(t, data)
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("offset %d outside a %d-byte segment", off, len(data))
		}
		if !torn && off != int64(len(data)) {
			t.Fatalf("untorn segment read to %d of %d bytes", off, len(data))
		}
		frames, at := 0, int64(0)
		for ; at < off; frames++ {
			at += walFrameHeader + int64(binary.LittleEndian.Uint32(data[at:]))
		}
		if at != off || frames != len(recs) {
			t.Fatalf("offset %d is not the end of the %d frames read (%d records)", off, frames, len(recs))
		}
		again, off2, torn2 := read(t, data[:off])
		if torn2 || off2 != off || !reflect.DeepEqual(again, recs) {
			t.Fatalf("prefix re-read: %d records to %d (torn %v), want %d to %d untorn", len(again), off2, torn2, len(recs), off)
		}
	})
}
