// Package kernel glues the simulated hardware (internal/dram) to the memory
// management stack (internal/mm, internal/vm) behind a process/syscall
// façade: Spawn, Mmap, Munmap, memory access with demand paging, sleep/wake
// with the per-CPU page frame cache drain semantics the paper's attack
// depends on.
package kernel

import (
	"errors"
	"fmt"

	"explframe/internal/dram"
	"explframe/internal/mm"
	"explframe/internal/vm"
)

// ProcState is the scheduling state of a process.
type ProcState int

// Process states.  The distinction matters because Section V requires the
// attacker to "remain active rather than going into inactive state
// (sleeping)": when every process on a CPU sleeps, the kernel drains that
// CPU's page frame cache and the planted frame escapes to the buddy
// allocator.
const (
	StateRunning ProcState = iota
	StateSleeping
)

// Config assembles a machine.
type Config struct {
	Geometry   dram.Geometry
	FaultModel dram.FaultModel
	// Mapper names the DRAM address-mapper kind (see dram.MapperNames);
	// empty selects the linear mapper, preserving historical behaviour.
	Mapper   string
	NumCPUs  int
	PCPBatch int
	PCPHigh  int
	// PCPFIFO is the page-frame-cache policy ablation knob (see mm.Config).
	PCPFIFO bool
	// MinWatermarkPages is passed through to the physical allocator.
	MinWatermarkPages uint64
	// Seed seeds the DRAM device and nothing else: its stream places the
	// weak cells at boot, then serves the flip-reliability draws of
	// hammering.  The kernel layer itself draws nothing, so weak-cell
	// placement is the only seeded part of NewMachine.
	Seed uint64
	// DrainOnIdle enables the pcp drain when a CPU has no runnable process.
	// Defaults to true in DefaultConfig; E11 flips it to isolate the effect.
	DrainOnIdle bool
}

// DefaultConfig returns a 2-CPU machine backed by the default 256 MiB DRAM
// geometry and fault model.
func DefaultConfig() Config {
	return Config{
		Geometry:          dram.DefaultGeometry(),
		FaultModel:        dram.DefaultFaultModel(),
		NumCPUs:           2,
		PCPBatch:          31,
		PCPHigh:           186,
		MinWatermarkPages: 32,
		Seed:              1,
		DrainOnIdle:       true,
	}
}

// ErrSegv reports an access outside every VMA.
var ErrSegv = errors.New("kernel: segmentation fault")

// Machine is one simulated computer.
type Machine struct {
	cfg  Config
	dev  *dram.Device
	phys *mm.PhysMem
	// running counts each CPU's running processes; the CPU is idle at 0.
	running []int
}

// NewMachine builds the DRAM device, physical allocator and CPUs.
func NewMachine(cfg Config) (*Machine, error) {
	mapper, err := dram.NewNamedMapper(cfg.Mapper, cfg.Geometry)
	if err != nil {
		return nil, err
	}
	dev, err := dram.NewDeviceWithMapper(mapper, cfg.FaultModel, cfg.Seed)
	if err != nil {
		return nil, err
	}
	pmCfg := mm.Config{
		TotalBytes:        cfg.Geometry.TotalBytes(),
		NumCPUs:           cfg.NumCPUs,
		PCPBatch:          cfg.PCPBatch,
		PCPHigh:           cfg.PCPHigh,
		PCPFIFO:           cfg.PCPFIFO,
		MinWatermarkPages: cfg.MinWatermarkPages,
	}
	phys, err := mm.New(pmCfg)
	if err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg, dev: dev, phys: phys, running: make([]int, cfg.NumCPUs)}, nil
}

// DRAM exposes the memory device (the attacker-visible hardware).
func (m *Machine) DRAM() *dram.Device { return m.dev }

// Phys exposes the physical allocator for inspection (tests, benchmarks).
func (m *Machine) Phys() *mm.PhysMem { return m.phys }

// NumCPUs returns the CPU count.
func (m *Machine) NumCPUs() int { return len(m.running) }

// Process is one simulated process pinned to a CPU.
type Process struct {
	name  string //doclint:keep perfbench passes Spawn a name; only the test accessor Name reads it
	cpuID int
	state ProcState
	as    *vm.AddressSpace
	m     *Machine

	// hammerAddrs is HammerLoop's translated-address scratch buffer, kept
	// on the process so repeated hammer bursts (the attack's steady state)
	// allocate nothing.
	hammerAddrs []dram.Addr
}

// Spawn creates a running process pinned to the given CPU.
func (m *Machine) Spawn(name string, cpuID int) (*Process, error) {
	if cpuID < 0 || cpuID >= len(m.running) {
		return nil, fmt.Errorf("kernel: no cpu %d", cpuID)
	}
	m.running[cpuID]++
	return &Process{
		name:  name,
		cpuID: cpuID,
		state: StateRunning,
		as:    vm.NewAddressSpace(),
		m:     m,
	}, nil
}

// SpawnResident spawns a process on cpuID with one anonymous mapping of
// length bytes, every page demand-faulted in — the touched buffer an
// attacker templates over ("store some data into the allocated pages").
func (m *Machine) SpawnResident(name string, cpuID int, length uint64) (*Process, vm.VirtAddr, error) {
	p, err := m.Spawn(name, cpuID)
	if err != nil {
		return nil, 0, err
	}
	base, err := p.Mmap(length)
	if err != nil {
		return nil, 0, err
	}
	if err := p.Touch(base, length); err != nil {
		return nil, 0, err
	}
	return p, base, nil
}

// Sleep marks the process inactive.  If that leaves the CPU with no
// runnable process the kernel drains the CPU's page frame cache — the
// behaviour that forces the paper's attacker to busy-wait.
func (p *Process) Sleep() {
	if p.state == StateRunning {
		p.state = StateSleeping
		p.m.running[p.cpuID]--
	}
	if p.m.cfg.DrainOnIdle && p.m.running[p.cpuID] == 0 {
		p.m.phys.DrainCPU(p.cpuID)
	}
}

// Wake marks the process runnable again.
func (p *Process) Wake() {
	if p.state == StateSleeping {
		p.state = StateRunning
		p.m.running[p.cpuID]++
	}
}

// Mmap creates a read-write anonymous mapping of length bytes and returns
// its base address.  No physical frames are allocated until the pages are
// touched.
func (p *Process) Mmap(length uint64) (vm.VirtAddr, error) {
	return p.as.Map(length)
}

// Munmap removes [addr, addr+length).  Present frames are freed on the
// process's CPU: order-0 frees land in the per-CPU page frame cache, which
// is the planting primitive of the attack.
func (p *Process) Munmap(addr vm.VirtAddr, length uint64) error {
	var freeErr error
	err := p.as.Unmap(addr, length, func(_ vm.VirtAddr, pfn mm.PFN) {
		if e := p.m.phys.FreePages(p.cpuID, pfn, 0); e != nil && freeErr == nil {
			freeErr = e
		}
	})
	if err != nil {
		return err
	}
	return freeErr
}

// fault serves a demand-paging fault for the page containing va: a fresh
// order-0 frame is allocated through the CPU's page frame cache, zeroed,
// and mapped.  It returns va's physical address.
func (p *Process) fault(va vm.VirtAddr) (uint64, error) {
	if _, ok := p.as.FindVMA(va); !ok {
		return 0, fmt.Errorf("%w at %#x", ErrSegv, uint64(va))
	}
	pfn, err := p.m.phys.AllocPages(p.cpuID, 0)
	if err != nil {
		return 0, err
	}
	// The kernel hands out zeroed pages.  Zeroing bypasses the activation
	// model: it is a streaming store whose row pressure is irrelevant to
	// the attack statistics and would otherwise dominate simulation cost.
	p.m.dev.ZeroNoActivate(pfn.Phys(), vm.PageSize)
	// MapFrame fails only on a corrupted address space; surface that loudly.
	return pfn.Phys() + va.Offset(), p.as.MapFrame(va, pfn)
}

// translate resolves va to a physical address, faulting the page in on
// first touch.
func (p *Process) translate(va vm.VirtAddr) (uint64, error) {
	if pa, ok := p.as.Translate(va); ok {
		return pa, nil
	}
	return p.fault(va)
}

// Load reads one byte from the process's address space.  The access
// reaches DRAM (the simulation behaves as if the line was flushed, which is
// the state a Rowhammer loop maintains).
func (p *Process) Load(va vm.VirtAddr) (byte, error) {
	var b [1]byte
	err := p.access(va, b[:], false)
	return b[0], err
}

// Store writes one byte.
func (p *Process) Store(va vm.VirtAddr, v byte) error {
	b := [1]byte{v}
	return p.access(va, b[:], true)
}

// ReadBytesInto fills out with the bytes starting at va.  The first byte
// of each page goes through the activation model; the rest of the page is
// bulk-copied, matching a cache-line-granular burst rather than per-byte
// activations.  The caller owns out, so a hot path (flip probing, the
// victim's table reload) reuses one buffer and never allocates.
func (p *Process) ReadBytesInto(va vm.VirtAddr, out []byte) error {
	return p.access(va, out, false)
}

// WriteBytes stores data starting at va, with the same activation
// granularity as ReadBytesInto.
func (p *Process) WriteBytes(va vm.VirtAddr, data []byte) error {
	return p.access(va, data, true)
}

// access is the one memory datapath behind Load, Store, ReadBytesInto and
// WriteBytes.  It walks [va, va+len(buf)) page by page: translate (faulting
// the page in on first touch), open the page's row with one activation,
// then move the page's span of buf with one range operation.
func (p *Process) access(va vm.VirtAddr, buf []byte, write bool) error {
	for len(buf) > 0 {
		n := int(uint64(va.PageBase()) + vm.PageSize - uint64(va))
		if n > len(buf) {
			n = len(buf)
		}
		pa, err := p.translate(va)
		if err != nil {
			return err
		}
		p.m.dev.ActivateRow(pa)
		if write {
			p.m.dev.WriteRangeNoActivate(pa, buf[:n])
		} else {
			p.m.dev.ReadRangeNoActivate(pa, buf[:n])
		}
		buf = buf[n:]
		va += vm.VirtAddr(n)
	}
	return nil
}

// Touch demand-faults every page in [va, va+length) by writing its first
// byte, the way the paper's attacker must "store some data into the
// allocated pages".
func (p *Process) Touch(va vm.VirtAddr, length uint64) error {
	for off := uint64(0); off < length; off += vm.PageSize {
		if err := p.Store(va+vm.VirtAddr(off), 1); err != nil {
			return err
		}
	}
	return nil
}

// HammerLoop issues rounds of activations cycling through vas in order —
// the access-flush-access loop.  Each address is translated once up front
// into a scratch buffer reused across calls and the device runs the loop
// (dram.Device.HammerLoop); the result is identical to one ActivateRow per
// address per round, and steady-state hammering allocates nothing (the
// zero-alloc contract BENCH_trajectory.json pins).  HammerLoop(vas, 1) is a
// single CLFLUSH+load per address.
func (p *Process) HammerLoop(vas []vm.VirtAddr, rounds int) error {
	if cap(p.hammerAddrs) < len(vas) {
		p.hammerAddrs = make([]dram.Addr, len(vas))
	}
	addrs := p.hammerAddrs[:len(vas)]
	for i, va := range vas {
		pa, err := p.translate(va)
		if err != nil {
			return err
		}
		addrs[i] = p.m.dev.Mapper().ToDRAM(pa)
	}
	p.m.dev.HammerLoop(addrs, rounds)
	return nil
}

// Translate resolves a virtual address without faulting; ok is false for
// untouched pages.
func (p *Process) Translate(va vm.VirtAddr) (uint64, bool) {
	return p.as.Translate(va)
}
