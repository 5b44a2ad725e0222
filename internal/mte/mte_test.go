package mte

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestPointerTagRoundtrip(t *testing.T) {
	f := func(ptr uint64, tag uint8) bool {
		p := WithTag(ptr, tag)
		return PointerTag(p) == tag&0xF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTagCheck(t *testing.T) {
	ts := NewTagStore()
	ts.TagRange(0x1000, 0x100, 5)

	ok := WithTag(0x1010, 5)
	if err := ts.Check(ok, 16); err != nil {
		t.Fatalf("matching tag rejected: %v", err)
	}
	bad := WithTag(0x1010, 6)
	var fault *TagFault
	if err := ts.Check(bad, 16); !errors.As(err, &fault) {
		t.Fatalf("mismatched tag accepted")
	}
	// Crossing into an untagged granule faults.
	edge := WithTag(0x10f8, 5)
	if err := ts.Check(edge, 16); err == nil {
		t.Fatal("access crossing the tagged range accepted")
	}
}

func TestStripingWithTags(t *testing.T) {
	// Two adjacent 1 KiB "linear memories" with different colors: a
	// pointer colored for the first cannot touch the second.
	ts := NewTagStore()
	ts.TagRange(0, 1024, 1)
	ts.TagRange(1024, 1024, 2)
	p := WithTag(1020, 1)
	if err := ts.Check(p, 16); err == nil {
		t.Fatal("cross-color access accepted")
	}
	if err := ts.Check(WithTag(0, 1), 1024); err != nil {
		t.Fatalf("own-color full-range access rejected: %v", err)
	}
}
