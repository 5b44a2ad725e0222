package isolation

import (
	"repro/internal/mem"
)

// multiProc is the scaling strategy ColorGuard replaces (§6.4.3): each
// isolation domain is an OS process, dealt round-robin across
// Config.Processes. Isolation is free at the mechanism level — disjoint
// page tables — but every domain crossing is a kernel context switch
// that flushes the dTLB and cold-starts the caches (Figure 7), which is
// what TransitionForScheme charges MultiProc on top of the convention.
type multiProc struct {
	slab
	processes int
}

func newMultiProc() *multiProc {
	b := &multiProc{processes: 1}
	b.slab.kind = MultiProc
	return b
}

// Processes returns the process count slots are dealt across.
func (b *multiProc) Processes() int { return b.processes }

func (b *multiProc) Reserve(as *mem.AS, cfg Config) error {
	if err := b.slab.Reserve(as, cfg); err != nil {
		return err
	}
	if cfg.Processes > 0 {
		b.processes = cfg.Processes
	}
	return nil
}

func (b *multiProc) Allocate(initialBytes uint64) (Slot, error) {
	sl, err := b.slab.allocate(initialBytes, false)
	if err != nil {
		return Slot{}, err
	}
	sl.Proc = sl.Index % b.processes
	return sl, nil
}
