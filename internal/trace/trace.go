// Package trace provides the workload actors the experiments run against
// the simulated kernel: crypto victims that keep an S-box table in a
// steerable page, and background noise processes whose allocation churn
// pollutes the per-CPU page frame cache.
//
// Victims are cipher-agnostic: any cipher registered in
// internal/cipher/registry can be spawned by name, and all table handling
// (size, canonical contents, corruption detection) flows through the
// registry metadata.
package trace

import (
	"fmt"

	"explframe/internal/cipher/registry"
	"explframe/internal/kernel"
	"explframe/internal/stats"
	"explframe/internal/vm"
)

// Victim is a process that performs encryptions with an S-box table held in
// its own (simulated) memory — the data the ExplFrame attack corrupts.
type Victim struct {
	Proc   *kernel.Process
	Cipher registry.Cipher

	inst    registry.Instance
	tableVA vm.VirtAddr
	table   []byte // loadTable's buffer, reused across encryptions
}

// SpawnVictim creates a victim process running the named registered cipher
// on the given CPU and allocates its working memory: requestPages pages
// obtained with one mmap, with the page holding the S-box table touched
// first (so the hottest page-frame-cache frame backs the table — the
// paper's steering target).  tableOffset is the byte offset of the table
// within that first page.
func SpawnVictim(m *kernel.Machine, cpu int, cipherName string, key []byte, requestPages int, tableOffset int) (*Victim, error) {
	c, ok := registry.Get(cipherName)
	if !ok {
		return nil, fmt.Errorf("trace: unknown cipher %q (registered: %v)", cipherName, registry.Names())
	}
	if requestPages <= 0 {
		return nil, fmt.Errorf("trace: requestPages must be positive")
	}
	if tableOffset < 0 || tableOffset+c.TableLen() > vm.PageSize {
		return nil, fmt.Errorf("trace: table at offset %d does not fit a page", tableOffset)
	}
	inst, err := c.New(key)
	if err != nil {
		return nil, err
	}
	proc, err := m.Spawn("victim", cpu)
	if err != nil {
		return nil, err
	}
	v := &Victim{Proc: proc, Cipher: c, inst: inst, table: make([]byte, c.TableLen())}

	base, err := proc.Mmap(uint64(requestPages) * vm.PageSize)
	if err != nil {
		return nil, err
	}
	v.tableVA = base + vm.VirtAddr(tableOffset)

	// First touch allocates the table page — this is the allocation the
	// attack steers.  Remaining pages are touched afterwards.
	if err := proc.WriteBytes(v.tableVA, c.SBox()); err != nil {
		return nil, err
	}
	for p := 1; p < requestPages; p++ {
		if err := proc.Store(base+vm.VirtAddr(p)*vm.PageSize, byte(p)); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// TablePage returns the base virtual address of the page holding the table.
func (v *Victim) TablePage() vm.VirtAddr { return v.tableVA.PageBase() }

// loadTable reads the S-box from victim memory, as a table-driven
// implementation does implicitly on every lookup; reloading per encryption
// is what makes a DRAM fault persistent across ciphertexts.  The returned
// slice is the victim's own buffer, valid until the next load.
func (v *Victim) loadTable() ([]byte, error) {
	if err := v.Proc.ReadBytesInto(v.tableVA, v.table); err != nil {
		return nil, err
	}
	return v.table, nil
}

// Encrypt encrypts one block (Cipher.BlockSize bytes) with the in-memory
// table and returns the ciphertext.
func (v *Victim) Encrypt(pt []byte) ([]byte, error) {
	if len(pt) != v.Cipher.BlockSize() {
		return nil, fmt.Errorf("trace: %s plaintext must be %d bytes, got %d",
			v.Cipher.Name(), v.Cipher.BlockSize(), len(pt))
	}
	table, err := v.loadTable()
	if err != nil {
		return nil, err
	}
	ct := make([]byte, v.Cipher.BlockSize())
	v.inst.Encrypt(table, ct, pt)
	return ct, nil
}

// EncryptBatch encrypts len(pts) blocks through the instance's batch path
// (bitsliced in full 64-lane chunks for the built-in ciphers) and returns
// the ciphertexts in order.  The table is read from victim memory once per
// batch: reads are side-effect-free and the planted faults are persistent,
// so a batch sees exactly the table every per-block Encrypt in its place
// would have seen.
func (v *Victim) EncryptBatch(pts [][]byte) ([][]byte, error) {
	bs := v.Cipher.BlockSize()
	for _, pt := range pts {
		if len(pt) != bs {
			return nil, fmt.Errorf("trace: %s plaintext must be %d bytes, got %d",
				v.Cipher.Name(), bs, len(pt))
		}
	}
	table, err := v.loadTable()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, len(pts)*bs)
	cts := make([][]byte, len(pts))
	for i := range cts {
		cts[i] = buf[i*bs : (i+1)*bs]
	}
	v.inst.EncryptBatch(table, cts, pts)
	return cts, nil
}

// TableCorruptions returns every corrupted table index together with the
// byte values currently stored there.  The ExplFrame attacker derives the
// same information from templating (it knows every flippable bit of the
// planted page and the public table layout); experiments read it directly.
func (v *Victim) TableCorruptions() (indices []int, values []byte, err error) {
	raw, err := v.loadTable()
	if err != nil {
		return nil, nil, err
	}
	want := v.Cipher.SBox()
	for i := range raw {
		if raw[i] != want[i] {
			indices = append(indices, i)
			values = append(values, raw[i])
		}
	}
	return indices, values, nil
}

// Noise is a set of background processes that churn memory on one CPU,
// polluting its page frame cache the way unrelated system activity does.
type Noise struct {
	procs []*kernel.Process
	rng   *stats.RNG
	live  [][]vm.VirtAddr // outstanding single-page mappings per process
}

// SpawnNoise creates n noise processes pinned to the CPU.
func SpawnNoise(m *kernel.Machine, cpu, n int, rng *stats.RNG) (*Noise, error) {
	no := &Noise{rng: rng}
	for i := 0; i < n; i++ {
		p, err := m.Spawn(fmt.Sprintf("noise%d", i), cpu)
		if err != nil {
			return nil, err
		}
		no.procs = append(no.procs, p)
		no.live = append(no.live, nil)
	}
	return no, nil
}

// Churn performs ops random allocation events across the noise processes:
// each event either maps and touches a page or unmaps a previously mapped
// one.  This is the traffic that can consume or bury a planted frame.
func (no *Noise) Churn(ops int) error {
	if len(no.procs) == 0 {
		return nil
	}
	for i := 0; i < ops; i++ {
		pi := no.rng.Intn(len(no.procs))
		p := no.procs[pi]
		if len(no.live[pi]) > 0 && no.rng.Bool(0.5) {
			// Unmap a random outstanding page.
			li := no.rng.Intn(len(no.live[pi]))
			va := no.live[pi][li]
			if err := p.Munmap(va, vm.PageSize); err != nil {
				return err
			}
			no.live[pi][li] = no.live[pi][len(no.live[pi])-1]
			no.live[pi] = no.live[pi][:len(no.live[pi])-1]
			continue
		}
		va, err := p.Mmap(vm.PageSize)
		if err != nil {
			return err
		}
		if err := p.Store(va, byte(i)); err != nil {
			return err
		}
		no.live[pi] = append(no.live[pi], va)
	}
	return nil
}
