package obs

// IndexMetrics bundles the two uots_index_* counters: how the disk
// store's keyword and vertex indexes were loaded at open, from the
// persistent sidecar or by a rebuild scan. See CONTRIBUTING.md for the
// family contract.
type IndexMetrics struct {
	WarmStarts   *Counter // uots_index_warm_starts_total
	RebuildScans *Counter // uots_index_rebuild_scans_total
}

// NewIndexMetrics registers the uots_index_* counters on reg. A nil
// registry returns nil; RecordOpen on a nil receiver is a no-op, so
// callers with optional metrics need no guard.
func NewIndexMetrics(reg *Registry) *IndexMetrics {
	if reg == nil {
		return nil
	}
	return &IndexMetrics{
		WarmStarts: reg.Counter("uots_index_warm_starts_total",
			"Disk-store opens served from the persistent index sidecar (no rebuild scan)."),
		RebuildScans: reg.Counter("uots_index_rebuild_scans_total",
			"Disk-store opens that fell back to the sequential index rebuild scan."),
	}
}

// RecordOpen counts one disk-store open by how its indexes were loaded.
func (m *IndexMetrics) RecordOpen(warm bool) {
	if m == nil {
		return
	}
	if warm {
		m.WarmStarts.Inc()
	} else {
		m.RebuildScans.Inc()
	}
}
