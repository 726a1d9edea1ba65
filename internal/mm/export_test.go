package mm

// Config returns the configuration the allocator was built with.
func (pm *PhysMem) Config() Config { return pm.cfg }

// TotalPages returns the number of managed frames.
func (pm *PhysMem) TotalPages() uint64 { return uint64(len(pm.frames)) }

// ZoneSpan returns the [base, end) frame range of a zone.
func (pm *PhysMem) ZoneSpan(zt ZoneType) (base, end PFN) {
	z := pm.zones[zt]
	if z == nil {
		return 0, 0
	}
	return z.spanBase, z.spanEnd
}
