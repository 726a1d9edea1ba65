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
