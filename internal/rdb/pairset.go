package rdb

import "math/bits"

// pairSet is an open-addressing hash set of packed (F, T) pairs — the dedup
// structure behind Relation.Add. Compared with the seed's
// map[uint64]struct{} it stores one uint64 per slot, probes linearly with a
// Fibonacci-hashed start slot, and never allocates per insert: every tuple
// of an operator that can repeat a pair passes through it.
//
// The empty-slot sentinel is ^uint64(0) and the deleted-slot sentinel is
// ^uint64(0)-1; the two keys equal to the sentinels (which node IDs never
// produce) are tracked by side flags so the set is still total over all
// uint64 keys. Deletion leaves a tombstone slot so probe chains stay intact;
// tombstones are reclaimed on insert and dropped wholesale by grow.
type pairSet struct {
	slots   []uint64
	shift   uint // 64 - log2(len(slots))
	used    int
	dels    int // tombstone slots (count toward the grow threshold)
	maxUsed int // grow threshold: 7/8 of len(slots)
	hasMax  bool
	hasDel  bool // membership of the key equal to pairDeleted
	inserts int  // insert calls since the last clear (a regression stat)
}

const (
	pairEmpty   = ^uint64(0)
	pairDeleted = ^uint64(0) - 1
)

// packPair packs two node IDs into the set's key. It matches the seed's
// tupleKey truncation to 32 bits per column.
func packPair(f, t int32) uint64 {
	return uint64(uint32(f))<<32 | uint64(uint32(t))
}

func newPairSet(capHint int) pairSet {
	n := 16
	for n < capHint*8/7+1 {
		n <<= 1
	}
	s := pairSet{slots: make([]uint64, n)}
	s.shift = uint(64 - bits.TrailingZeros(uint(n)))
	s.maxUsed = n * 7 / 8
	for i := range s.slots {
		s.slots[i] = pairEmpty
	}
	return s
}

func (s *pairSet) slot(k uint64) int {
	return int((k * 0x9E3779B97F4A7C15) >> s.shift)
}

// has reports membership.
func (s *pairSet) has(k uint64) bool {
	switch k {
	case pairEmpty:
		return s.hasMax
	case pairDeleted:
		return s.hasDel
	}
	if len(s.slots) == 0 {
		return false
	}
	mask := len(s.slots) - 1
	for i := s.slot(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return true
		case pairEmpty:
			return false
		}
	}
}

// insert adds k and reports whether it was new.
func (s *pairSet) insert(k uint64) bool {
	s.inserts++
	switch k {
	case pairEmpty:
		if s.hasMax {
			return false
		}
		s.hasMax = true
		return true
	case pairDeleted:
		if s.hasDel {
			return false
		}
		s.hasDel = true
		return true
	}
	if len(s.slots) == 0 {
		*s = newPairSet(16)
	}
	mask := len(s.slots) - 1
	free := -1
	for i := s.slot(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return false
		case pairDeleted:
			if free < 0 {
				free = i
			}
		case pairEmpty:
			if free >= 0 {
				s.slots[free] = k
				s.dels--
			} else {
				s.slots[i] = k
			}
			s.used++
			if s.used+s.dels >= s.maxUsed {
				s.grow(s.used * 2)
			}
			return true
		}
	}
}

// remove deletes k and reports whether it was present. The slot becomes a
// tombstone so later probes for other keys keep walking the chain.
func (s *pairSet) remove(k uint64) bool {
	switch k {
	case pairEmpty:
		was := s.hasMax
		s.hasMax = false
		return was
	case pairDeleted:
		was := s.hasDel
		s.hasDel = false
		return was
	}
	if len(s.slots) == 0 {
		return false
	}
	mask := len(s.slots) - 1
	for i := s.slot(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			s.slots[i] = pairDeleted
			s.used--
			s.dels++
			return true
		case pairEmpty:
			return false
		}
	}
}

// reserve makes room for n more keys, so inserting them rehashes nothing.
func (s *pairSet) reserve(n int) {
	if s.used+s.dels+n >= s.maxUsed {
		s.grow(s.used + n)
	}
}

// grow rehashes the set for capHint keys, dropping its tombstones.
func (s *pairSet) grow(capHint int) {
	old := s.slots
	next := newPairSet(capHint)
	next.hasMax = s.hasMax
	next.hasDel = s.hasDel
	next.inserts = s.inserts
	mask := len(next.slots) - 1
	for _, k := range old {
		if k == pairEmpty || k == pairDeleted {
			continue
		}
		i := next.slot(k)
		for next.slots[i] != pairEmpty {
			i = (i + 1) & mask
		}
		next.slots[i] = k
		next.used++
	}
	*s = next
}

// clear empties the set keeping its slot array, so a pooled relation's next
// use starts from the capacity the previous request grew it to instead of
// re-walking the power-of-two ladder. It returns the slots it wrote, which
// follow the keys held, not the capacity: an untouched set returns at once;
// one under an eighth full, its keys all pairs of rows, is cleared from each
// key's home to the next empty slot (the cleared part of a cluster is then
// always a suffix of it, so each key's slot goes with its home's run).
func (s *pairSet) clear(rows []row) int {
	n := 0
	switch {
	case s.used == 0 && s.dels == 0:
	case s.dels == 0 && len(rows)*8 < len(s.slots):
		mask := len(s.slots) - 1
		for _, w := range rows {
			for i := s.slot(packPair(w.f, w.t)); s.slots[i] != pairEmpty; i = (i + 1) & mask {
				s.slots[i] = pairEmpty
				n++
			}
		}
	default:
		for i := range s.slots {
			s.slots[i] = pairEmpty
		}
		n = len(s.slots)
	}
	s.used, s.dels, s.inserts = 0, 0, 0
	s.hasMax, s.hasDel = false, false
	return n
}

// clone returns a deep copy.
func (s *pairSet) clone() pairSet {
	c := *s
	c.slots = append([]uint64(nil), s.slots...)
	return c
}
