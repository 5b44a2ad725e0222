#!/bin/sh
# docscheck: keep the documentation spine true.
#
# 1. Every internal package (and every command) has a package comment.
# 2. ARCHITECTURE.md exists, is linked from README.md, and documents
#    every internal package.
# 3. The flags and experiment ids the docs advertise actually exist.
# 4. The documented commands run, in cheap smoke configurations —
#    including the fault-injection flags — and so does every program
#    under examples/.
# 5. Deleted names stay out of the docs: the legacy perf record, the
#    slot allocators the isolation slab's table replaced, the fused
#    tier's profile pass and fusion switches, the MTE tag store, the
#    exported names the API census removed, and the builder methods and
#    mnemonics the op census removed.
# 6. The API census passes: every exported name has a non-test use or
#    an allow-list entry with its reason (tools/apicensus).
#
# Run via `make docscheck`; `make ci` (and so CI) includes it.
set -eu
cd "$(dirname "$0")/.."

fail=0
err() { echo "docscheck: $*" >&2; fail=1; }

# --- 1. package comments -------------------------------------------------
for dir in internal/*/ cmd/*/; do
    pkg=$(basename "$dir")
    # A package comment is a comment line immediately preceding the
    # package clause in at least one file of the package.
    if ! awk 'prev ~ /^(\/\/|\*\/)/ && $0 ~ /^package / { found=1 } { prev=$0 } END { exit !found }' "$dir"*.go; then
        err "$dir has no package comment (godoc synopsis)"
    fi
done

# --- 2. the architecture spine ------------------------------------------
[ -f ARCHITECTURE.md ] || err "ARCHITECTURE.md missing"
grep -q 'ARCHITECTURE\.md' README.md || err "README.md does not link ARCHITECTURE.md"
for dir in internal/*/; do
    pkg=$(basename "$dir")
    grep -q "internal/$pkg" ARCHITECTURE.md || err "ARCHITECTURE.md does not mention internal/$pkg"
done

grep -q '^## Instance lifecycle and reuse$' ARCHITECTURE.md || err "ARCHITECTURE.md lacks the \"Instance lifecycle and reuse\" section"

# --- 3. advertised ids and flags exist ----------------------------------
go build ./... || err "go build failed"
ids=$(go run ./cmd/benchtab -list)
for id in transition transitions scaling faultsweep backend-matrix attribution hardening; do
    echo "$ids" | grep -q "^$id " || err "experiment id $id (documented) not in benchtab -list"
done
flags=$(go run ./cmd/benchtab -help 2>&1 || true)
for f in tier scheme harden metrics trace pprof j; do
    echo "$flags" | grep -q -- "-$f" || err "benchtab flag -$f (documented) missing"
done
flags=$(go run ./cmd/faassim -help 2>&1 || true)
for f in faultrate faultseed timeout retries shed backend scheme harden coldstart latency phases; do
    echo "$flags" | grep -q -- "-$f" || err "faassim flag -$f (documented) missing"
done
flags=$(go run ./cmd/faasd -help 2>&1 || true)
for f in addr addrfile kernels backend scheme harden shards workers queue maxinflight slots warm timeout breakerfails tier spans trace; do
    echo "$flags" | grep -q -- "-$f" || err "faasd flag -$f (documented) missing"
done
flags=$(go run ./cmd/faasload -help 2>&1 || true)
for f in url kernel scheme rps seconds ramp json smoke strict shape peak period burstlen burstgap mix alpha nmax seed; do
    echo "$flags" | grep -q -- "-$f" || err "faasload flag -$f (documented) missing"
done
flags=$(go run ./cmd/faasrouter -help 2>&1 || true)
for f in addr addrfile faasd n workerargs attach dir vnodes spread loadfactor autoscale scaleinterval growmisses idleticks cooldownticks maxwarm draintimeout; do
    echo "$flags" | grep -q -- "-$f" || err "faasrouter flag -$f (documented) missing"
done

# --- operator's guide ----------------------------------------------------
[ -f docs/OPERATIONS.md ] || err "docs/OPERATIONS.md missing"
grep -q 'OPERATIONS\.md' README.md || err "README.md does not link docs/OPERATIONS.md"
for f in loadfactor scaleinterval growmisses idleticks maxwarm; do
    grep -q -- "-$f" docs/OPERATIONS.md || err "OPERATIONS.md does not document faasrouter -$f"
done
grep -q 'cluster-bench' EXPERIMENTS.md || err "EXPERIMENTS.md does not document cluster-bench"

# --- 4. documented invocations run (smoke mode) -------------------------
smoke() {
    desc=$1; shift
    if ! "$@" >/dev/null 2>&1; then
        err "documented command failed: $desc"
    fi
}
smoke "benchtab faultsweep"   go run ./cmd/benchtab -o /dev/null faultsweep
smoke "benchtab transition"   go run ./cmd/benchtab -o /dev/null transition
smoke "benchtab tier slow"    go run ./cmd/benchtab -tier slow -o /dev/null transition
smoke "benchtab tier fast"    go run ./cmd/benchtab -tier fast -o /dev/null transition
smoke "sfic"                  go run ./cmd/sfic
smoke "faassim (clean)"       go run ./cmd/faassim -handler regex-filtering -procs 2 -seconds 0.2
smoke "faassim (faults)"      go run ./cmd/faassim -handler regex-filtering -procs 2 -seconds 0.2 \
                                  -faultrate 0.05 -retries 4 -timeout 100 -shed 512
smoke "faassim (mte cold)"    go run ./cmd/faassim -handler regex-filtering -procs 2 -seconds 0.2 \
                                  -backend mte -coldstart -faultrate 0.02 -retries 3
smoke "faassim (zerocost)"    go run ./cmd/faassim -handler regex-filtering -procs 2 -seconds 0.2 \
                                  -scheme zerocost
smoke "faassim (phases)"      go run ./cmd/faassim -handler regex-filtering -procs 2 -seconds 0.2 \
                                  -phases
smoke "benchtab -scheme"      go run ./cmd/benchtab -scheme zerocost -o /dev/null transition
smoke "benchtab attribution"  go run ./cmd/benchtab -o /dev/null attribution
smoke "benchtab -harden"      go run ./cmd/benchtab -harden swivel-sfi -o /dev/null transition
smoke "faassim (harden)"      go run ./cmd/faassim -handler regex-filtering -procs 2 -seconds 0.2 \
                                  -harden swivel-sfi
smoke "sfic (harden)"         go run ./cmd/sfic -mode segue -harden swivel-cet
for ex in examples/*/; do
    smoke "example $ex"        go run "./$ex"
done

# An unknown scheme must be rejected with a usage error, not silently
# accepted as the default.
if go run ./cmd/faassim -scheme warp -seconds 0.1 >/dev/null 2>&1; then
    err "faassim accepted -scheme warp"
fi

# Same for an unknown hardening mode.
if go run ./cmd/faassim -harden retpoline -seconds 0.1 >/dev/null 2>&1; then
    err "faassim accepted -harden retpoline"
fi
if go run ./cmd/benchtab -harden retpoline -o /dev/null transition >/dev/null 2>&1; then
    err "benchtab accepted -harden retpoline"
fi

# --- 5. deleted names -------------------------------------------------
# bench/ (bash bench/run.sh) is the only performance record; the names of
# the timing trajectory it replaced must not drift back into the docs.
if grep -rnE 'make results|BENCH_(results|history)|benchdiff|benchgate|REPRO_TIER' \
    README.md EXPERIMENTS.md DESIGN.md ARCHITECTURE.md docs/ .claude/ >&2; then
    err "docs mention the deleted legacy perf record (lines above)"
fi
# The isolation slab's table is the only slot state; the pool allocator
# and the test-only MTE allocator it replaced stay gone from the docs.
if grep -rnE 'pool\.(Pool|Slot)\b|pool\.New\(|mte\.Allocator|NewAllocator' \
    README.md EXPERIMENTS.md DESIGN.md ARCHITECTURE.md docs/ .claude/ >&2; then
    err "docs mention a deleted slot allocator (lines above)"
fi
# The fused tier fuses the whole program on first use; its profile pass
# and the process-wide switches that bypassed it stay gone from the docs.
if grep -rnE 'SetFuseEager|SetFuseWarmup|fuseWarmupInsts|FuseDebugDump|profile\.go|profile pass' \
    README.md EXPERIMENTS.md DESIGN.md ARCHITECTURE.md docs/ .claude/ >&2; then
    err "docs mention the deleted fused-tier profile pass (lines above)"
fi
# MTE is priced by isolation.LifecycleFor alone; the granule tag store
# that nothing read stays gone from the docs.
if grep -rnE 'internal/mte|TagStore|mteBackend|TagForSlot|Slot\.Tag\b|TagRangeClear' \
    README.md EXPERIMENTS.md DESIGN.md ARCHITECTURE.md docs/ .claude/ >&2; then
    err "docs mention the deleted MTE tag store (lines above)"
fi
# Exported names the API census found without a non-test caller, and
# deleted, stay out of the docs.
if grep -rnE 'sfi\.MustCompile|FuncByName|Resumable\(|RemoveWorker|Ring\.(Members|Remove)\b|Policy\.Forget|Server\.Draining|MemRead\(|HasMem\(|MemOperand\(|Machine\.(Running|ResultF)\b|stats\.(Stddev|Min|Max|Mean)\b|Span\.(Get|Total|Durations)\b|Snapshot\.Text|AS\.(Bits|Size|VMAs)\b|Rates\.Rate\b|Supervisor\.Kill|TLB\.Flushes|Mix\.Names|Instance\.(Slot|Scheme|Backend)\(' \
    README.md EXPERIMENTS.md DESIGN.md ARCHITECTURE.md docs/ .claude/ >&2; then
    err "docs mention an exported name the API census deleted (lines above)"
fi
# The instruction surface is what the op census test measures; the
# builder methods and mnemonics it deleted stay out of the docs.
if grep -rnE 'MemCopy|\bGGet\b|\bGSet\b|V128Load|PADDD|WRFSBASE|RDGSBASE|FusedBlocks' \
    README.md EXPERIMENTS.md DESIGN.md ARCHITECTURE.md docs/ .claude/ >&2; then
    err "docs mention a builder method or mnemonic the op census deleted (lines above)"
fi

# --- 6. API census --------------------------------------------------------
go run ./tools/apicensus || err "API census failed (lines above)"

if [ "$fail" -ne 0 ]; then
    echo "docscheck: FAILED" >&2
    exit 1
fi
echo "docscheck: ok"
