package dram

// Sparse chunk-granular backing store for Device data.
//
// A Device used to hold its entire capacity as one dense []byte, which made
// building a device for a multi-GiB profile cost gigabytes up front even though the
// experiments touch a few megabytes of it.  The store below allocates
// fixed-size segments on first *distinguishing* write: reads of untouched
// memory return the fill pattern (zero — DRAM hands the kernel zeroed
// frames in this simulation) without materialising anything, and writes
// that store the fill pattern into an untouched segment are elided.  The
// observable byte sequence is identical to the dense array for every
// operation order, which is why every E1–E17 number in the results book
// stayed byte-identical across the switch (see
// TestSparseDenseObservationalEquivalence).

// storeChunkBytes is the segment granularity: large enough that the chunk
// index of an 8 GiB device stays around a megabyte, small enough that one
// touched page does not materialise a noticeable fraction of a bank.
const storeChunkBytes = 64 << 10

// store is the sparse byte store.  A nil chunk represents storeChunkBytes
// of the fill pattern (zero).
type store struct {
	size   uint64
	chunks [][]byte
}

// newStore builds an empty (all-zero) store of the given capacity.
func newStore(size uint64) *store {
	n := size / storeChunkBytes
	if size%storeChunkBytes != 0 {
		n++
	}
	return &store{size: size, chunks: make([][]byte, n)}
}

// chunkFor materialises and returns the chunk containing pa.
func (s *store) chunkFor(pa uint64) []byte {
	ci := pa / storeChunkBytes
	c := s.chunks[ci]
	if c == nil {
		n := uint64(storeChunkBytes)
		if base := ci * storeChunkBytes; base+n > s.size {
			n = s.size - base
		}
		c = make([]byte, n)
		s.chunks[ci] = c
	}
	return c
}

// load returns the byte at pa.
func (s *store) load(pa uint64) byte {
	c := s.chunks[pa/storeChunkBytes]
	if c == nil {
		return 0
	}
	return c[pa%storeChunkBytes]
}

// xor flips the masked bits at pa.
func (s *store) xor(pa uint64, mask byte) {
	if mask == 0 {
		return
	}
	s.chunkFor(pa)[pa%storeChunkBytes] ^= mask
}

// read copies [pa, pa+len(out)) into out.  Untouched chunks read as the
// fill pattern: the covered span of out is zeroed explicitly, so callers
// may pass reused buffers.
func (s *store) read(pa uint64, out []byte) {
	for len(out) > 0 {
		ci, off := pa/storeChunkBytes, pa%storeChunkBytes
		n := storeChunkBytes - off
		if n > uint64(len(out)) {
			n = uint64(len(out))
		}
		if c := s.chunks[ci]; c != nil {
			copy(out[:n], c[off:off+n])
		} else {
			clear(out[:n])
		}
		out = out[n:]
		pa += n
	}
}

// write stores data at [pa, pa+len(data)).  A segment that would write the
// fill pattern into an untouched chunk is elided, so bulk zero fills over
// fresh memory allocate nothing.
func (s *store) write(pa uint64, data []byte) {
	for len(data) > 0 {
		ci, off := pa/storeChunkBytes, pa%storeChunkBytes
		n := storeChunkBytes - off
		if n > uint64(len(data)) {
			n = uint64(len(data))
		}
		seg := data[:n]
		if s.chunks[ci] != nil || !allZero(seg) {
			copy(s.chunkFor(pa)[off:], seg)
		}
		data = data[n:]
		pa += n
	}
}

// zero clears [pa, pa+n).  Untouched chunks already read as zero, so only
// materialised ones are written: zeroing fresh memory allocates nothing.
func (s *store) zero(pa, n uint64) {
	for n > 0 {
		ci, off := pa/storeChunkBytes, pa%storeChunkBytes
		span := storeChunkBytes - off
		if span > n {
			span = n
		}
		if c := s.chunks[ci]; c != nil {
			clear(c[off : off+span])
		}
		n -= span
		pa += span
	}
}

// materializeAll forces every chunk into existence, turning the store into
// the dense array it replaced.  Test hook: the sparse/dense equivalence
// property runs identical workloads against a fresh store and a fully
// materialised one.
func (s *store) materializeAll() {
	for ci := range s.chunks {
		s.chunkFor(uint64(ci) * storeChunkBytes)
	}
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
