package isolation

import "fmt"

// Scheme names a transition calling-convention scheme: how much
// register and stack state a sandbox crossing saves, restores, and
// switches. "Isolation Without Taxation" shows most of the classic
// transition cost (register save/restore, stack switch, springboard
// indirection) is a convention choice, not a security requirement —
// so the scheme is an axis orthogonal to the isolation mechanism.
//
// A scheme prices only the convention half of a crossing. The
// mechanism tax composes on top and never goes away: ColorGuard still
// pays a WRPKRU each way, and multiproc still pays the context-switch
// and cache-refill costs when the core moves between process domains.
// TransitionForScheme is the single place that composition happens.
type Scheme string

// The four transition schemes, cheapest convention last-but-one.
const (
	// SchemeDefault is the conventional transition the paper measures
	// in §6.4.1: stack switch, ABI adjustment, and exception-handler
	// setup — 30.34 ns each way at 2.2 GHz. Every pre-scheme golden
	// number was produced under this convention.
	SchemeDefault Scheme = "default"

	// SchemeZeroCost is the zero-cost calling convention: the sandbox
	// shares the host's ABI, so entering is an ordinary call and
	// leaving an ordinary return — no register save/restore, no stack
	// switch. The crossing costs what a function call costs.
	SchemeZeroCost Scheme = "zerocost"

	// SchemeOneStack keeps the host stack inside the sandbox and saves
	// context lazily: only the registers the crossing actually clobbers
	// are spilled, on first use rather than up front.
	SchemeOneStack Scheme = "onestack"

	// SchemeTrampoline is the heavyweight springboard baseline: a full
	// register-file save/restore plus an indirect trampoline jump in
	// each direction — the classic NaCl-style crossing the other
	// schemes are measured against.
	SchemeTrampoline Scheme = "trampoline"
)

// Schemes returns every transition scheme, default first.
func Schemes() []Scheme {
	return []Scheme{SchemeDefault, SchemeZeroCost, SchemeOneStack, SchemeTrampoline}
}

// ParseScheme maps a flag string to a Scheme; the empty string selects
// SchemeDefault.
func ParseScheme(s string) (Scheme, error) {
	if s == "" {
		return SchemeDefault, nil
	}
	for _, sc := range Schemes() {
		if sc == Scheme(s) {
			return sc, nil
		}
	}
	return "", fmt.Errorf("isolation: unknown transition scheme %q (want one of %v)", s, Schemes())
}

// ResolveScheme maps the empty scheme to SchemeDefault and leaves every
// explicit scheme unchanged.
func ResolveScheme(s Scheme) Scheme {
	if s == "" {
		return SchemeDefault
	}
	return s
}

// Per-scheme convention costs. The nanosecond figures feed the
// virtual-time simulators (faas) and the cycle figures feed the
// runtime's per-transition charging (rt) — sibling views of the same
// measurement, like TransitionNs (30.34 ns) and the runtime's 66.7
// cycles are for the default convention.
const (
	// defaultTransitionCycles is the runtime-side charge of one default
	// transition (≈30.34 ns at 2.2 GHz).
	defaultTransitionCycles = 66.7

	// ZeroCostTransitionNs is a zero-cost crossing each way: a call (or
	// ret) plus the pipeline bubble of the indirect target — 5 cycles.
	ZeroCostTransitionNs     = 2.27
	zeroCostTransitionCycles = 5.0

	// OneStackTransitionNs is a lazy-save crossing each way: the call
	// plus spilling the handful of registers the crossing clobbers —
	// 22 cycles.
	OneStackTransitionNs     = 10.0
	oneStackTransitionCycles = 22.0

	// TrampolineTransitionNs is the springboard baseline each way: full
	// register-file save/restore, stack switch, and the indirect
	// trampoline jump — 132 cycles.
	TrampolineTransitionNs     = 60.0
	trampolineTransitionCycles = 132.0

	// WRPKRUTaxNs is ColorGuard's mechanism tax each way under any
	// scheme: the §6.4.1 measured growth from 30.34 ns to 51.52 ns.
	WRPKRUTaxNs = 21.18
)

// BaseNs returns the scheme's convention cost of one crossing (one
// way), before any mechanism tax.
func (s Scheme) BaseNs() float64 {
	switch s {
	case SchemeZeroCost:
		return ZeroCostTransitionNs
	case SchemeOneStack:
		return OneStackTransitionNs
	case SchemeTrampoline:
		return TrampolineTransitionNs
	default:
		return TransitionNs
	}
}

// BaseCycles returns the scheme's convention cost of one crossing in
// runtime cycles — what rt.Instance charges per transitionIn/Out on
// top of the mechanism instructions (segment-base write, WRPKRU).
func (s Scheme) BaseCycles() float64 {
	switch s {
	case SchemeZeroCost:
		return zeroCostTransitionCycles
	case SchemeOneStack:
		return oneStackTransitionCycles
	case SchemeTrampoline:
		return trampolineTransitionCycles
	default:
		return defaultTransitionCycles
	}
}

// TransitionForScheme returns the transition cost model of a backend
// kind under a transition scheme (empty = SchemeDefault): the scheme's
// convention cost composed with the mechanism tax the kind cannot shed.
// It is the only transition pricing in the repo. Guard pages and MTE
// cross at the bare convention cost, ColorGuard adds a WRPKRU each way,
// and multiproc adds the context switch, the cache refill and the dTLB
// flush of moving the core between processes.
func TransitionForScheme(s Scheme, kind Kind) TransitionCost {
	base := s.BaseNs()
	t := TransitionCost{EnterNs: base, LeaveNs: base}
	switch kind {
	case ColorGuard:
		t.EnterNs += WRPKRUTaxNs
		t.LeaveNs += WRPKRUTaxNs
	case MultiProc:
		t.SwitchNs, t.RefillNs, t.FlushTLB = CtxSwitchNs, CacheRefillNs, true
	}
	return t
}
