package bitpack

import (
	"os/exec"
	"regexp"
	"testing"
)

// TestHotPathInlines pins the accessors the tables call on every counter and
// stash-flag access as inlinable. A formatted panic or any other call added
// to one of them pushes it past the inliner's budget of 80 and turns each
// access back into a function call, which no result-checking test notices.
// (*Counters).Set stays over the budget with its value check and is not
// listed.
func TestHotPathInlines(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range []string{
		"(*Counters).Get",
		"(*Counters).locate",
		"(*Bitset).Get",
		"(*Bitset).Set",
		"(*Bitset).Clear",
		"(*Bitset).check",
	} {
		re := regexp.MustCompile(`(?m): can inline ` + regexp.QuoteMeta(fn) + `$`)
		if !re.Match(out) {
			t.Errorf("%s is no longer inlinable; go build -gcflags=-m=2 shows its cost", fn)
		}
	}
}
