package cpu

import (
	"repro/internal/cache"
	"repro/internal/mem"
)

// FromScratch builds a machine the way NewMachine did before machines
// were recycled: every structure newly allocated, nothing drawn from
// the free list. It is the reference a recycled machine must equal.
func FromScratch(as *mem.AS, prog *Program) *Machine {
	return &Machine{
		AS:           as,
		Hier:         cache.NewHierarchy(),
		Cost:         DefaultCostModel(),
		Prog:         prog,
		Hosts:        prog.Hosts,
		Tier:         DefaultTier(),
		MaxCallDepth: 10000,
		bpred:        make([]uint8, 1<<14),
	}
}

// Recycle is Release followed by the NewMachine that gets m back, with
// the free list taken out from between them so a test can rely on it.
func Recycle(m *Machine, as *mem.AS, prog *Program) *Machine {
	m.scrub()
	return m.bind(as, prog)
}

// Flags returns the machine's condition flags.
func (m *Machine) Flags() [4]bool { return [4]bool{m.zf, m.sf, m.cf, m.of} }
