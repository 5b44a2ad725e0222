package isolation

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
)

// slabModel is the naive reference a backend's slot lifecycle must
// match: a LIFO free list, an in-use set, per-slot MTE tag state, and
// the init/teardown time LifecycleFor prices for every step.
type slabModel struct {
	kind    Kind
	life    LifecycleCost
	stripes int // ColorGuard's stripe count (pkey = 1 + index%stripes)
	procs   int // MultiProc's process count (proc = index%procs)

	free  []int          // top of the stack is the end
	inUse map[int]Slot   // allocated slots by index
	freed []Slot         // every slot descriptor recycled so far
	addr  map[int]uint64 // slot base per index, fixed once seen

	// MTE: colored means the slot still holds its tag color (allocating
	// an uncolored slot pays the tagging term); taggedBytes is the tagged
	// prefix of the slot's memory.
	colored     map[int]bool
	taggedBytes map[int]uint64

	initNs, teardownNs float64
}

func newSlabModel(kind Kind, b Backend, cfg Config) *slabModel {
	m := &slabModel{
		kind:        kind,
		life:        LifecycleFor(kind, cfg.PreserveTagsOnMadvise),
		stripes:     b.Layout().NumStripes,
		procs:       cfg.Processes,
		inUse:       make(map[int]Slot),
		addr:        make(map[int]uint64),
		colored:     make(map[int]bool),
		taggedBytes: make(map[int]uint64),
	}
	for i := b.Capacity() - 1; i >= 0; i-- {
		m.free = append(m.free, i)
	}
	return m
}

// allocate checks one Allocate against the model and applies it.
func (m *slabModel) allocate(s Slot, err error, initialBytes uint64) error {
	if len(m.free) == 0 {
		if !errors.Is(err, ErrExhausted) {
			return fmt.Errorf("allocate with no free slot: err %v, want ErrExhausted", err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("allocate: %v", err)
	}
	i := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	if s.Index != i {
		return fmt.Errorf("allocate: slot %d, want %d (LIFO)", s.Index, i)
	}
	if a, ok := m.addr[i]; ok && s.Addr != a {
		return fmt.Errorf("slot %d: addr %#x, want %#x", i, s.Addr, a)
	}
	m.addr[i] = s.Addr
	var pkey, tag uint8
	var proc int
	switch m.kind {
	case ColorGuard:
		pkey = uint8(1 + i%m.stripes)
	case MTE:
		tag = uint8(1 + i%15)
	case MultiProc:
		proc = i % m.procs
	}
	if s.Pkey != pkey || s.Tag != tag || s.Proc != proc {
		return fmt.Errorf("slot %d: pkey/tag/proc %d/%d/%d, want %d/%d/%d", i, s.Pkey, s.Tag, s.Proc, pkey, tag, proc)
	}
	recolor := m.kind == MTE && !m.colored[i]
	if recolor {
		m.colored[i] = true
		m.taggedBytes[i] = max(m.taggedBytes[i], initialBytes)
	}
	m.initNs += m.life.InitNs(initialBytes, recolor)
	m.inUse[i] = s
	return nil
}

// recycle checks one Recycle of s against the model and applies it.
func (m *slabModel) recycle(s Slot, err error) error {
	if _, ok := m.inUse[s.Index]; !ok {
		if !errors.Is(err, ErrDoubleFree) {
			return fmt.Errorf("recycle of free slot %d: err %v, want ErrDoubleFree", s.Index, err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("recycle slot %d: %v", s.Index, err)
	}
	delete(m.inUse, s.Index)
	m.free = append(m.free, s.Index)
	m.freed = append(m.freed, s)
	m.teardownNs += m.life.TeardownNs(s.MaxBytes)
	if m.life.RecolorOnReuse {
		m.colored[s.Index] = false
		m.taggedBytes[s.Index] = 0
	}
	return nil
}

// grow checks one Grow of an allocated slot against the model.
func (m *slabModel) grow(s Slot, err error, upTo uint64) error {
	if err != nil {
		return fmt.Errorf("grow slot %d to %d: %v", s.Index, upTo, err)
	}
	if m.kind == MTE {
		m.taggedBytes[s.Index] = max(m.taggedBytes[s.Index], upTo)
	}
	return nil
}

// check compares the backend's observable state with the model's.
func (m *slabModel) check(b Backend) error {
	if got := b.Available(); got != len(m.free) {
		return fmt.Errorf("available = %d, want %d", got, len(m.free))
	}
	initNs, teardownNs := b.LifecycleNs()
	if initNs != m.initNs || teardownNs != m.teardownNs {
		return fmt.Errorf("lifecycle ns = %v/%v, want %v/%v", initNs, teardownNs, m.initNs, m.teardownNs)
	}
	if m.kind != MTE {
		return nil
	}
	tags := b.(*mteBackend).Tags()
	for i, a := range m.addr {
		want := uint8(0)
		if m.taggedBytes[i] > 0 {
			want = uint8(1 + i%15)
		}
		if got := tags.Get(a); got != want {
			return fmt.Errorf("slot %d first granule tag = %d, want %d", i, got, want)
		}
		if n := m.taggedBytes[i]; n > 0 && n < testMemBytes {
			if got := tags.Get(a + n); got != 0 {
				return fmt.Errorf("slot %d granule past the tagged %d bytes has tag %d, want 0", i, n, got)
			}
		}
	}
	return nil
}

// TestSlabMatchesModel drives every backend kind through seeded random
// sequences of Allocate, Recycle (including recycles of already-free
// slots), Grow and exhaustion, and after every step compares the
// backend with the naive reference model: free-slot count, the error
// each call returns, each slot's index, address and marking, the MTE
// granule tags, and the lifecycle time LifecycleFor prices.
func TestSlabMatchesModel(t *testing.T) {
	sizes := []uint64{0, 4 << 10, 16 << 10, testMemBytes}
	for _, kind := range Kinds() {
		for _, preserve := range []bool{false, true} {
			if preserve && kind != MTE {
				continue
			}
			for seed := uint64(1); seed <= 8; seed++ {
				name := fmt.Sprintf("%s/preserve=%v/seed=%d", kind, preserve, seed)
				cfg := smallConfig()
				cfg.Processes = 3
				cfg.PreserveTagsOnMadvise = preserve
				b, err := NewReserved(kind, mem.NewAS(47), cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				m := newSlabModel(kind, b, cfg)
				if kind == ColorGuard && m.stripes < 2 {
					t.Fatalf("%s: %d stripes, want slots colored", name, m.stripes)
				}
				rng := stats.NewRNG(seed)
				for step := 0; step < 400; step++ {
					var err error
					switch op := rng.Intn(10); {
					case op < 4 || len(m.inUse) == 0:
						n := sizes[rng.Intn(len(sizes))]
						s, aerr := b.Allocate(n)
						err = m.allocate(s, aerr, n)
					case op < 7:
						s := m.inUse[pick(rng, m.inUse)]
						err = m.recycle(s, b.Recycle(s))
					case op < 8 && len(m.freed) > 0:
						s := m.freed[rng.Intn(len(m.freed))]
						err = m.recycle(s, b.Recycle(s))
					default:
						s := m.inUse[pick(rng, m.inUse)]
						n := sizes[rng.Intn(len(sizes))]
						err = m.grow(s, b.Grow(s, n), n)
					}
					if err == nil {
						err = m.check(b)
					}
					if err != nil {
						t.Fatalf("%s step %d: %v", name, step, err)
					}
				}
				if err := b.Release(); err != nil {
					t.Fatalf("%s: release: %v", name, err)
				}
			}
		}
	}
}

// pick returns a uniformly chosen key of a non-empty in-use set, in a
// deterministic order.
func pick(rng *stats.RNG, inUse map[int]Slot) int {
	n := rng.Intn(len(inUse))
	for i := 0; ; i++ {
		if _, ok := inUse[i]; ok {
			if n == 0 {
				return i
			}
			n--
		}
	}
}
