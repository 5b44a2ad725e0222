// Package a is the census fixture: one exported name of each kind the
// census must tell apart.
package a

// TestOnly is called only from a test: the one name the census reports.
func TestOnly() int { return 1 }

// T is named by ForBench's result.
type T struct{}

// String is called only through fmt.Stringer.
func (T) String() string { return "t" }

// ForBench is called only from the second module.
func ForBench() T { return T{} }
