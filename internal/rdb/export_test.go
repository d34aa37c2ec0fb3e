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
