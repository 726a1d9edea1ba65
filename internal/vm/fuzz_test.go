package vm

import (
	"cmp"
	"errors"
	"slices"
	"testing"

	"explframe/internal/mm"
)

// refSpace is the naive model FuzzAddressSpace checks AddressSpace against,
// written from the stated semantics: a list of mapped intervals and one
// frame per faulted page.
type refSpace struct {
	vmas   []VMA
	frames map[VirtAddr]mm.PFN // page base -> frame
}

func byStart(a, b VMA) int { return cmp.Compare(a.Start, b.Start) }

func (r *refSpace) covering(va VirtAddr) bool {
	for _, v := range r.vmas {
		if v.Contains(va) {
			return true
		}
	}
	return false
}

func (r *refSpace) overlaps(start, end VirtAddr) bool {
	for _, v := range r.vmas {
		if v.Start < end && start < v.End {
			return true
		}
	}
	return false
}

// mapLen places the area at the lowest free start at or after mmapBase;
// such a start is mmapBase or the end of an existing area.
func (r *refSpace) mapLen(length uint64) VirtAddr {
	cands := []VirtAddr{mmapBase}
	for _, v := range r.vmas {
		if v.End > mmapBase {
			cands = append(cands, v.End)
		}
	}
	slices.Sort(cands)
	for _, c := range cands {
		if !r.overlaps(c, c+VirtAddr(length)) {
			r.vmas = append(r.vmas, VMA{c, c + VirtAddr(length)})
			slices.SortFunc(r.vmas, byStart)
			return c
		}
	}
	panic("unreachable: the last candidate is free")
}

// unmap cuts [start, end) out of every interval and returns the faulted
// pages it removes in ascending address order.
func (r *refSpace) unmap(start, end VirtAddr) (released []VirtAddr, err error) {
	if !r.overlaps(start, end) {
		return nil, ErrNoVMA
	}
	var next []VMA
	for _, v := range r.vmas {
		for _, piece := range []VMA{{v.Start, min(v.End, start)}, {max(v.Start, end), v.End}} {
			if piece.Start < piece.End {
				next = append(next, piece)
			}
		}
	}
	slices.SortFunc(next, byStart)
	r.vmas = next
	for va := start; va < end; va += PageSize {
		if _, ok := r.frames[va]; ok {
			released = append(released, va)
		}
	}
	return released, nil
}

// FuzzAddressSpace decodes the input as a sequence of Map, Unmap, MapFrame
// and Translate operations over the first pages of the mmap area and checks
// every result and error against refSpace, and the invariants after every
// operation.
func FuzzAddressSpace(f *testing.F) {
	f.Add([]byte{0, 7, 0, 3, 2, 1, 10, 3, 1, 20, 1, 0, 2, 9, 1, 1, 4, 3, 2, 0})
	f.Add([]byte{0, 15, 2, 0, 0, 2, 3, 0, 2, 7, 0, 1, 2, 9, 1, 0, 2, 2, 3, 3, 9, 9})
	f.Add([]byte{0, 3, 0, 3, 0, 3, 1, 4, 0, 2, 0, 0, 2, 12, 0, 1, 2, 13, 0, 3, 12, 5})
	// Fault pages 0-2 of an 8-page area, unmap pages 5-6, then fault the
	// left half past its frames and the right half: the halves must not
	// share frame storage.
	f.Add([]byte{0, 7, 0, 2, 0, 0, 2, 1, 0, 2, 2, 0, 1, 5, 1, 2, 3, 0, 2, 7, 0, 3, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		as := NewAddressSpace()
		ref := &refSpace{frames: map[VirtAddr]mm.PFN{}}
		nextPFN := mm.PFN(1)
		page := func(b byte) VirtAddr { return mmapBase + VirtAddr(b%32)*PageSize }
		for len(ops) >= 3 {
			op, a, b := ops[0]%4, ops[1], ops[2]
			ops = ops[3:]
			switch op {
			case 0: // Map
				length := uint64(1+a%8) * PageSize
				got, err := as.Map(length)
				if want := ref.mapLen(length); err != nil || got != want {
					t.Fatalf("Map(%d) = %#x, %v, want %#x", length, uint64(got), err, uint64(want))
				}
			case 1: // Unmap
				start, end := page(a), page(a)+VirtAddr(1+b%16)*PageSize
				var got []VirtAddr
				err := as.Unmap(start, uint64(end-start), func(va VirtAddr, pfn mm.PFN) {
					if pfn != ref.frames[va] {
						t.Fatalf("Unmap released %#x with frame %d, want %d", uint64(va), pfn, ref.frames[va])
					}
					got = append(got, va)
				})
				want, wantErr := ref.unmap(start, end)
				if !errors.Is(err, wantErr) {
					t.Fatalf("Unmap(%#x, %#x) = %v, want %v", uint64(start), uint64(end), err, wantErr)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("Unmap(%#x, %#x) released %#x, want %#x", uint64(start), uint64(end), got, want)
				}
				for _, va := range want {
					delete(ref.frames, va)
				}
			case 2: // MapFrame
				va := page(a) + VirtAddr(b)
				err := as.MapFrame(va, nextPFN)
				_, mapped := ref.frames[va.PageBase()]
				switch {
				case !ref.covering(va):
					if !errors.Is(err, ErrNoVMA) {
						t.Fatalf("MapFrame(%#x) outside every VMA = %v, want ErrNoVMA", uint64(va), err)
					}
				case mapped:
					if err == nil || errors.Is(err, ErrNoVMA) {
						t.Fatalf("MapFrame(%#x) of a mapped page = %v", uint64(va), err)
					}
				default:
					if err != nil {
						t.Fatalf("MapFrame(%#x) = %v", uint64(va), err)
					}
					ref.frames[va.PageBase()] = nextPFN
					nextPFN++
				}
			case 3: // Translate
				va := page(a) + VirtAddr(b)*16
				pa, ok := as.Translate(va)
				pfn, want := ref.frames[va.PageBase()]
				if ok != want || (ok && pa != pfn.Phys()+va.Offset()) {
					t.Fatalf("Translate(%#x) = %#x, %v, want frame %d, %v", uint64(va), pa, ok, pfn, want)
				}
			}
			if err := as.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got := as.VMAs(); !slices.Equal(got, ref.vmas) {
				t.Fatalf("VMAs = %v, want %v", got, ref.vmas)
			}
		}
	})
}
