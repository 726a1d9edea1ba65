package vm

// Len returns the byte length of the area.
func (v VMA) Len() uint64 { return uint64(v.End - v.Start) }

// Pages returns the number of pages the area spans.
func (v VMA) Pages() uint64 { return v.Len() / PageSize }

// MappedBytes returns the total bytes covered by VMAs.
func (as *AddressSpace) MappedBytes() uint64 {
	var n uint64
	for _, v := range as.vmas {
		n += v.Len()
	}
	return n
}

// MappedPages returns the number of present leaf translations.
func (pt *PageTable) MappedPages() int {
	n := 0
	pt.Walk(func(VirtAddr, PTE) { n++ })
	return n
}
