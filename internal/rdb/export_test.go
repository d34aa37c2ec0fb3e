package rdb

// ReleaseCounted is Release handing back the pair-set work of the request:
// the inserts its temporaries made and the slots clearing their sets writes.
func (s *ExecState) ReleaseCounted() (inserts, cleared int) {
	for _, r := range s.owned {
		inserts += r.set.inserts
		cleared += r.set.clear(r.rows)
	}
	s.Release()
	return inserts, cleared
}

// StoredSetInserts sums the pair-set inserts of db's stored relations, and the
// slots their sets hold.
func StoredSetInserts(db *DB) (inserts, slots int) {
	for _, r := range db.Rels {
		inserts += r.set.inserts
		slots += len(r.set.slots)
	}
	return inserts, slots
}

// MemberTemps lists the request's temporaries that a membership probe read as
// a key set of their own (Relation.members): each one's name — its
// statement's, "" for an operand no statement names — and the index builds it
// made all the same.
func (s *ExecState) MemberTemps() (names []string, builds []int) {
	for _, r := range s.owned {
		if m := r.mem; m[0] != nil && m[0].built >= 0 || m[1] != nil && m[1].built >= 0 {
			names, builds = append(names, r.Name), append(builds, r.IndexBuilds())
		}
	}
	return names, builds
}

// A descendant index asked of a per-run relation fails this package's tests
// outright instead of surfacing as an error some tests would expect.
func init() { strictPerRun = true }

// OnDescIndexBuild runs fn with the name of each relation whose descendant
// index a reader builds from now on, until the returned func is called.
func OnDescIndexBuild(fn func(rel string)) (stop func()) {
	buildHook = func(rel *Relation) { fn(rel.Name) }
	return func() { buildHook = nil }
}

// DescIndexed names the relations db holds a built descendant index of.
func DescIndexed(db *DB) []string {
	st := db.nodes.Load()
	st.mu.Lock()
	defer st.mu.Unlock()
	var names []string
	for rel, e := range st.byRel {
		if idx, built := e.final(); built && idx != nil {
			names = append(names, rel.Name)
		}
	}
	return names
}

// RaceEnabled reports whether the test binary was built with the race
// detector.
const RaceEnabled = raceEnabled

// NodeChunks counts the chunks of db's node table.
func NodeChunks(db *DB) int {
	n := 0
	db.nodes.Load().tab.eachChunk(func(int, *nodeChunk) { n++ })
	return n
}
