package kernel

import "explframe/internal/vm"

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// CPU returns the CPU the process is pinned to.
func (p *Process) CPU() int { return p.cpuID }

// State returns the scheduling state.
func (p *Process) State() ProcState { return p.state }

// AddressSpace exposes the process's VMAs and page table for inspection.
func (p *Process) AddressSpace() *vm.AddressSpace { return p.as }

// DemandFaults returns how many demand-paging faults the process has taken.
func (p *Process) DemandFaults() uint64 { return p.touched }

// Exit terminates the process, unmapping every VMA and releasing all frames
// to the CPU's page frame cache / buddy allocator.
func (p *Process) Exit() {
	if p.state == StateExited {
		return
	}
	for _, v := range p.as.VMAs() {
		_ = p.Munmap(v.Start, uint64(v.End-v.Start))
	}
	p.state = StateExited
	c := p.m.cpus[p.cpuID]
	delete(c.runnable, p.pid)
	delete(p.m.procs, p.pid)
	if p.m.cfg.DrainOnIdle && len(c.runnable) == 0 {
		p.m.phys.DrainCPU(p.cpuID)
	}
}

// Processes returns the live processes, for inspection.
func (m *Machine) Processes() []*Process {
	out := make([]*Process, 0, len(m.procs))
	for _, p := range m.procs {
		out = append(out, p)
	}
	return out
}
