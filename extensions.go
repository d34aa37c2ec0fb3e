package xpath2sql

import (
	"io"

	"xpath2sql/internal/core"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/specialized"
)

// This file exposes the extension features: XML reconstruction of answers
// (§5.2) and specialized DTDs — the paper's encoding of XML Schema (§8).

// Reconstruct rebuilds the XML subtrees of the given answer nodes from the
// shredded relations alone, wrapped in a synthetic <result> root (§5.2
// "XML reconstruction").
func Reconstruct(db *DB, answers []int) (*Document, error) {
	return shred.Reconstruct(db, answers)
}

// AnswerPath returns the root-to-node label path of an answer, recovered
// from the shredded catalog (the P attribute's purpose in §5.2).
func AnswerPath(db *DB, id int) (string, error) {
	return shred.AncestorPath(db, id)
}

// Satisfiable reports whether the query can match on some document of the
// DTD, decided from the DTD structure alone (§8's satisfiability analysis,
// structural fragment): unmatchable label steps and structurally false
// qualifiers collapse the translation to ∅.
func Satisfiable(q Query, d *DTD) (bool, error) {
	return core.Satisfiable(q, d)
}

// SaveDB writes a shredded database in a line-oriented text format;
// LoadDB restores it, so documents are shredded once and reused.
func SaveDB(db *DB, w io.Writer) error { return db.Save(w) }

// LoadDB reads a database written by SaveDB.
func LoadDB(r io.Reader) (*DB, error) { return rdb.Load(r) }

// SpecializedDTD is a specialized DTD (Ele', D', g) — the formal core of
// XML Schema per §8: the same element name may follow different productions
// depending on context, via specialized types mapped to surface labels by g.
type SpecializedDTD = specialized.DTD

// ShredSpecialized shreds a document by inferred specialized type, one
// relation per specialized type.
func ShredSpecialized(doc *Document, s *SpecializedDTD) (*DB, error) {
	return specialized.Shred(doc, s)
}

// TranslateSpecialized translates a surface-vocabulary query over a
// specialized DTD: label steps expand through g⁻¹ into unions (the
// disjunctive-production encoding of §8) and the ordinary pipeline runs
// over the inner DTD.
func TranslateSpecialized(q Query, s *SpecializedDTD, opts Options) (*Translation, error) {
	res, err := specialized.Translate(q, s, opts)
	if err != nil {
		return nil, err
	}
	return &Translation{res: res}, nil
}
