package sfi

import (
	"fmt"

	"repro/internal/telemetry"
)

// Harden selects a Spectre-hardening scheme, orthogonal to the
// isolation Mode the same way a transition scheme is orthogonal to the
// backend. Each scheme lowers to extra modeled instructions (ENDBR,
// BTBFLUSH, INTERLOCK pseudo-ops) whose costs live in the cpu cost
// model, so every execution tier charges them identically and
// HardenNone compiles byte-identical code to a pre-hardening build.
//
// The schemes mirror Swivel ("Swivel: Hardening WebAssembly against
// Spectre") and the deterministic variants from "A Turning Point for
// Verified Spectre Sandboxing":
//
//   - HardenNone — no hardening; the baseline.
//   - HardenSwivelSFI — linear-block CFI on stock hardware: BTB flushes
//     before untrusted indirect transfers (indirect calls, br_table
//     dispatch, returns) plus register interlocks on heap loads and at
//     loop back-edges (block boundaries).
//   - HardenSwivelCET — CET hardware CFI: an endbranch landing pad at
//     every function entry plus load interlocks; no flushes.
//   - HardenDeterministic — verified-SFI-style determinism: endbranch
//     pads plus speculative-load-hardening masks on both loads and
//     stores; no flushes.
type Harden uint8

// Hardening schemes.
const (
	HardenNone Harden = iota
	HardenSwivelSFI
	HardenSwivelCET
	HardenDeterministic
	numHardens
)

var hardenNames = [...]string{"none", "swivel-sfi", "swivel-cet", "deterministic"}

// String returns the scheme name.
func (h Harden) String() string {
	if int(h) < len(hardenNames) {
		return hardenNames[h]
	}
	return fmt.Sprintf("harden(%d)", uint8(h))
}

// ParseHarden resolves a scheme name as accepted by the -harden flags.
func ParseHarden(s string) (Harden, error) {
	for i, name := range hardenNames {
		if s == name {
			return Harden(i), nil
		}
	}
	return HardenNone, fmt.Errorf("unknown harden mode %q (want none, swivel-sfi, swivel-cet, or deterministic)", s)
}

// Hardens returns every scheme, in definition order.
func Hardens() []Harden {
	return []Harden{HardenNone, HardenSwivelSFI, HardenSwivelCET, HardenDeterministic}
}

// flushesIndirect reports whether the scheme pays a BTB flush before
// untrusted indirect transfers (Swivel-SFI on stock hardware).
func (h Harden) flushesIndirect() bool { return h == HardenSwivelSFI }

// endbrEntry reports whether function entries carry a CET endbranch
// landing pad.
func (h Harden) endbrEntry() bool {
	return h == HardenSwivelCET || h == HardenDeterministic
}

// masksLoads reports whether sandbox heap loads carry a register
// interlock / SLH mask.
func (h Harden) masksLoads() bool { return h != HardenNone }

// masksStores reports whether sandbox heap stores are masked too
// (the deterministic variant's full SLH).
func (h Harden) masksStores() bool { return h == HardenDeterministic }

// interlocksBackEdges reports whether loop back-edges terminate a
// linear block with an interlock (Swivel-SFI's block discipline).
func (h Harden) interlocksBackEdges() bool { return h == HardenSwivelSFI }

// ctrHardens counts compiles per hardening scheme, precomputed so the
// hot Compile path only does an array index + atomic add.
var ctrHardens = func() [numHardens]*telemetry.Counter {
	var cs [numHardens]*telemetry.Counter
	for _, h := range Hardens() {
		cs[h] = telemetry.Default.Counter("sfi.hardens." + h.String())
	}
	return cs
}()
