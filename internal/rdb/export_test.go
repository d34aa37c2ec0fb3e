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

// A descendant index asked of a per-run relation fails this package's tests
// outright instead of surfacing as an error some tests would expect.
func init() { strictPerRun = true }
