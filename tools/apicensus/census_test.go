package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCensusFixture runs the census over a module with a second module
// nested in it, the way bench/ sits in the repository. Of a test-only
// function, a method called only through fmt.Stringer, and a function
// only the second module calls, it must report exactly the first. The
// allow-list then passes a covered report, and fails an uncovered one,
// an entry that covers nothing, an entry without a reason and a
// wildcard entry.
func TestCensusFixture(t *testing.T) {
	hits, err := census([]string{"testdata/mod", "testdata/mod/bench"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, h := range hits {
		names = append(names, h.name)
	}
	if want := []string{"fixture/a.TestOnly"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("census reports %q, want %q", names, want)
	}

	cases := []struct {
		allow, fail string // fail is a substring of the error, "" for none
	}{
		{"fixture/a.TestOnly # test oracle\n", ""},
		{"fixture/a.* # whole package\n", "fixture/a.* is a wildcard"},
		{"", "fixture/a.TestOnly has no non-test use"},
		{"fixture/a.TestOnly # test oracle\nfixture/a.Gone # deleted\n", "fixture/a.Gone covers no reported name"},
		{"fixture/a.TestOnly\n", "want \"name # reason\""},
	}
	for _, c := range cases {
		file := filepath.Join(t.TempDir(), "allow.txt")
		if err := os.WriteFile(file, []byte(c.allow), 0o644); err != nil {
			t.Fatal(err)
		}
		err := check(hits, file)
		if c.fail == "" && err != nil || c.fail != "" && (err == nil || !strings.Contains(err.Error(), c.fail)) {
			t.Errorf("allow-list %q: err %v, want %q", c.allow, err, c.fail)
		}
	}
}
