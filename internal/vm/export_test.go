package vm

// Len returns the byte length of the area.
func (v VMA) Len() uint64 { return uint64(v.End - v.Start) }

// Pages returns the number of pages the area spans.
func (v VMA) Pages() uint64 { return v.Len() / PageSize }

// VMAs returns a copy of the current areas, sorted by start address.
func (as *AddressSpace) VMAs() []VMA {
	out := make([]VMA, len(as.areas))
	for i, a := range as.areas {
		out[i] = a.VMA
	}
	return out
}

// MappedBytes returns the total bytes covered by VMAs.
func (as *AddressSpace) MappedBytes() uint64 {
	var n uint64
	for _, a := range as.areas {
		n += a.Len()
	}
	return n
}
