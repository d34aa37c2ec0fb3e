package store

import "errors"

var (
	// ErrUnknownNode: the update names a node ID absent from the catalog.
	ErrUnknownNode = errors.New("store: unknown node")
	// ErrInvalid: the update would leave the document non-conforming to the
	// DTD (or structurally impossible, e.g. deleting the root element).
	ErrInvalid = errors.New("store: update violates the DTD")
	// ErrBadFragment: the XML fragment of an insert does not parse.
	ErrBadFragment = errors.New("store: malformed XML fragment")
	// ErrClosed: the store has been closed.
	ErrClosed = errors.New("store: closed")
	// ErrNoDurability: a durability-only operation (checkpoint) was invoked
	// on an ephemeral store (no directory configured).
	ErrNoDurability = errors.New("store: no durability directory configured")
	// ErrCorrupt: on-disk state (snapshot or non-tail WAL data) failed
	// validation during recovery.
	ErrCorrupt = errors.New("store: corrupt on-disk state")
	// ErrIDSpace: an insert would give a node an ID past math.MaxInt32, the
	// largest a row or an index can name. The store never frees a node ID, so
	// the same insert fails until the store is rebuilt.
	ErrIDSpace = errors.New("store: node ID space exhausted")
)
