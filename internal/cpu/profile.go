package cpu

import (
	"errors"
	"sync/atomic"
)

// This file is the fused tier's profile pass. A fused-tier Machine runs
// the decoded stream with per-pc execution counting switched on (one
// predictable branch per instruction gates it, so runs that don't
// profile pay nothing) until its per-Run instruction budget runs out.
// The budget check happens at an instruction boundary with fr.pc
// pointing at the next unexecuted instruction, so the run bails with
// errProfileBudget, merges its counts into the Program, triggers the
// one-time fused build, and resumes mid-call on the fused overlay — a
// single long Invoke still reaches the fused tier.

// fuseWarmupInsts is both the per-Run profile budget and the merged
// count at which the fused stream is built. Variables (not constants)
// so tests can shrink the warmup.
var (
	fuseWarmupInsts = int64(100_000)
	fuseHotCount    = uint32(64)
)

// SetFuseWarmup overrides the profile warmup budget and hot threshold
// and returns a function restoring the previous values. It is a testing
// hook: call it before starting any fused-tier machines and restore
// after they stop.
func SetFuseWarmup(insts int64, hot uint32) (restore func()) {
	oldInsts, oldHot := fuseWarmupInsts, fuseHotCount
	fuseWarmupInsts, fuseHotCount = insts, hot
	return func() { fuseWarmupInsts, fuseHotCount = oldInsts, oldHot }
}

// fuseEager, when set, makes fused-tier machines build the fused
// stream before their first instruction, treating every block as hot.
// It exists for differential tests and benchmarks that need full fused
// coverage on short programs; production use is profile-guided.
var fuseEager atomic.Bool

// SetFuseEager toggles eager fusion for fused-tier machines (off by
// default). With it on, the profile pass is skipped and every
// fusable group is formed, which gives deterministic fused-stream
// coverage to short-running differential and fuzz tests.
func SetFuseEager(on bool) { fuseEager.Store(on) }

// errProfileBudget is returned by a profiling runDecoded when the
// budget is exhausted. It never escapes runTiered: the machine state is
// a valid instruction boundary, so execution continues on the overlay.
var errProfileBudget = errors.New("cpu: profile budget reached")

// runTiered is the fused tier's stream selector: execute the fused
// overlay when it exists, otherwise profile on the decoded stream and
// build the overlay once enough counts accumulate.
func (m *Machine) runTiered(tele bool) error {
	p := m.Prog
	for {
		if fp := p.fusedP.Load(); fp != nil {
			m.profCounts = nil
			if tele {
				ctrDispatchFused.Inc()
			}
			return m.runDecoded(fp.funcs, false)
		}
		if fuseEager.Load() {
			p.buildFusedEager()
			continue
		}
		m.ensureProf()
		if tele {
			ctrDispatchFast.Inc()
		}
		err := m.runDecoded(p.decoded(), true)
		p.mergeProfile(m)
		if err != errProfileBudget {
			return err
		}
		// Budget reached mid-run: the merge above crossed the build
		// threshold, so the next loop iteration resumes on the overlay
		// from the exact instruction boundary the profile pass stopped at.
	}
}

// ensureProf arms the profile pass for one Run.
func (m *Machine) ensureProf() {
	if m.profCounts == nil {
		dec := m.Prog.decoded()
		m.profCounts = make([][]uint32, len(dec))
		for fn := range dec {
			m.profCounts[fn] = make([]uint32, len(dec[fn].insts))
		}
	}
	m.profLeft = fuseWarmupInsts
}

// mergeProfile folds the machine's local counts into the Program's
// aggregate and builds the fused stream once the merged total crosses
// the warmup threshold. Per-machine counts are plain increments; only
// the merge takes the Program lock, so concurrent machines profile
// race-free.
func (p *Program) mergeProfile(m *Machine) {
	if m.profCounts == nil {
		return
	}
	p.fuseMu.Lock()
	defer p.fuseMu.Unlock()
	if p.fusedP.Load() != nil {
		return
	}
	if p.profAgg == nil {
		p.profAgg = make([][]uint32, len(m.profCounts))
		for fn := range m.profCounts {
			p.profAgg[fn] = make([]uint32, len(m.profCounts[fn]))
		}
	}
	for fn := range m.profCounts {
		agg := p.profAgg[fn]
		for pc, c := range m.profCounts[fn] {
			if c != 0 {
				agg[pc] += c
				p.profTotal += uint64(c)
				m.profCounts[fn][pc] = 0
			}
		}
	}
	if p.profTotal >= uint64(fuseWarmupInsts) {
		p.buildFusedLocked(false)
	}
}

// buildFusedEager builds the fused stream with every block treated hot.
func (p *Program) buildFusedEager() {
	p.fuseMu.Lock()
	defer p.fuseMu.Unlock()
	if p.fusedP.Load() == nil {
		p.buildFusedLocked(true)
	}
}
