package cluster

import (
	"fmt"
	"testing"
)

// TestRingBalance: with the default virtual-node count, keys spread
// across members within a modest bound of the mean (consistent hashing
// is not perfectly uniform; vnodes keep the skew small). The hash is
// deterministic, so this is a fixed computation, not a flake risk.
func TestRingBalance(t *testing.T) {
	for _, members := range [][]string{
		{"a", "b", "c"},
		{"w0", "w1", "w2", "w3", "w4"},
		{"worker-1", "worker-2"},
	} {
		r := NewRing(0)
		for _, m := range members {
			r.Add(m)
		}
		counts := make(map[string]int)
		const keys = 30000
		for i := 0; i < keys; i++ {
			owner := r.Lookup(fmt.Sprintf("kernel-%d|backend|scheme", i), 1)
			if len(owner) != 1 {
				t.Fatalf("no owner for key %d", i)
			}
			counts[owner[0]]++
		}
		mean := float64(keys) / float64(len(members))
		for m, c := range counts {
			frac := float64(c) / mean
			if frac < 0.55 || frac > 1.55 {
				t.Errorf("members=%v: %s owns %d keys (%.2fx mean) — outside [0.55, 1.55]",
					members, m, c, frac)
			}
		}
		if len(counts) != len(members) {
			t.Errorf("members=%v: only %d members own keys", members, len(counts))
		}
	}
}

// TestRingMinimalMovement: adding a member moves keys only TO the new
// member (never between existing ones), and only about 1/(n+1) of
// them.
func TestRingMinimalMovement(t *testing.T) {
	r := NewRing(0)
	for _, m := range []string{"a", "b", "c"} {
		r.Add(m)
	}
	const keys = 20000
	before := make([]string, keys)
	for i := range before {
		before[i] = r.Lookup(fmt.Sprintf("key-%d", i), 1)[0]
	}

	r.Add("d")
	moved := 0
	for i := range before {
		after := r.Lookup(fmt.Sprintf("key-%d", i), 1)[0]
		if after != before[i] {
			moved++
			if after != "d" {
				t.Fatalf("key-%d moved %s -> %s, not to the new member", i, before[i], after)
			}
		}
	}
	frac := float64(moved) / keys
	if frac < 0.10 || frac > 0.45 {
		t.Errorf("join moved %.1f%% of keys; want roughly 1/4 (10%%..45%%)", 100*frac)
	}
}

// TestRingLookupOrder: Lookup returns distinct members, the first
// stable per key, and never more than the member count.
func TestRingLookupOrder(t *testing.T) {
	r := NewRing(0)
	for _, m := range []string{"a", "b", "c"} {
		r.Add(m)
	}
	cands := r.Lookup("some-key", 5)
	if len(cands) != 3 {
		t.Fatalf("Lookup(5) over 3 members returned %d", len(cands))
	}
	seen := map[string]bool{}
	for _, c := range cands {
		if seen[c] {
			t.Fatalf("duplicate candidate %s in %v", c, cands)
		}
		seen[c] = true
	}
	for i := 0; i < 100; i++ {
		if got := r.Lookup("some-key", 3)[0]; got != cands[0] {
			t.Fatalf("home flapped: %s then %s", cands[0], got)
		}
	}
	if got := r.Lookup("anything", 1); len(got) != 1 {
		t.Fatalf("Lookup(1) = %v", got)
	}
	empty := NewRing(0)
	if got := empty.Lookup("k", 2); got != nil {
		t.Fatalf("empty ring Lookup = %v", got)
	}
}
