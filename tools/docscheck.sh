#!/bin/sh
# docscheck: keep the documentation spine true.
#
# 1. Every internal package (and every command) has a package comment.
# 2. ARCHITECTURE.md exists, is linked from README.md, and documents
#    every internal package.
# 3. The flags and experiment ids the docs advertise actually exist.
# 4. The documented commands run, in cheap smoke configurations —
#    including the fault-injection flags.
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
for f in tier scheme harden history compare results metrics trace pprof j; do
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
smoke "quickstart example"    go run ./examples/quickstart

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

if [ "$fail" -ne 0 ]; then
    echo "docscheck: FAILED" >&2
    exit 1
fi
echo "docscheck: ok"
