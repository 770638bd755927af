package pool

// Stats is a snapshot of a system's internal state for diagnostics and
// operations dashboards.
type Stats struct {
	// Pools is the number of Pools (the event dimensionality k).
	Pools int
	// CellsPerPool is l².
	CellsPerPool int
	// IndexNodes is the number of distinct nodes currently serving as
	// index nodes.
	IndexNodes int
	// StoredEvents is the total number of events held.
	StoredEvents int
	// Segments is the number of storage segments (> cells touched when
	// workload sharing has delegated).
	Segments int
	// Delegations is the number of workload-sharing delegations so far.
	Delegations int
	// MirroredEvents is the number of replica copies held (0 without
	// replication).
	MirroredEvents int
	// FailedNodes counts nodes marked failed.
	FailedNodes int
	// Subscriptions is the number of live continuous queries.
	Subscriptions int
}

// Stats returns a snapshot of the system's state.
func (s *System) Stats() Stats {
	st := Stats{
		Pools:       len(s.pools),
		Delegations: s.delegations,
	}
	if len(s.pools) > 0 {
		st.CellsPerPool = s.pools[0].Side * s.pools[0].Side
	}
	distinct := make(map[int]bool, len(s.holder))
	for _, h := range s.holder {
		if h >= 0 {
			distinct[int(h)] = true
		}
	}
	st.IndexNodes = len(distinct)
	for i := 0; i < s.numSlots(); i++ {
		key := s.keyAt(i)
		st.Segments += len(s.Segments(key))
		st.MirroredEvents += s.MirrorRows(key).Len()
	}
	for _, n := range s.StorageLoad() {
		st.StoredEvents += n
	}
	for _, dead := range s.dead {
		if dead {
			st.FailedNodes++
		}
	}
	seen := make(map[uint64]bool)
	for _, subs := range s.subs {
		for _, sub := range subs {
			seen[sub.ID] = true
		}
	}
	st.Subscriptions = len(seen)
	return st
}
