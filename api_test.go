package mccuckoo

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.golden from the current method sets")

// publicNames names the types the package exports as aliases of internal
// ones by their public alias, which is the name a caller writes. Where the
// internal type is defined is not part of the API.
var publicNames = map[reflect.Type]string{
	reflect.TypeOf(RepairReport{}):  "mccuckoo.RepairReport",
	reflect.TypeOf(&CorruptError{}): "*mccuckoo.CorruptError",
}

// apiTypeName renders typ as the public API spells it.
func apiTypeName(typ reflect.Type) string {
	if name, ok := publicNames[typ]; ok {
		return name
	}
	return typ.String()
}

// apiSignature renders a method type without its receiver, e.g.
// "(uint64, uint64) mccuckoo.InsertResult".
func apiSignature(m reflect.Method) string {
	typ := m.Type
	in := make([]string, 0, typ.NumIn()-1)
	for i := 1; i < typ.NumIn(); i++ {
		s := apiTypeName(typ.In(i))
		if typ.IsVariadic() && i == typ.NumIn()-1 {
			s = "..." + apiTypeName(typ.In(i).Elem())
		}
		in = append(in, s)
	}
	out := make([]string, typ.NumOut())
	for i := range out {
		out[i] = apiTypeName(typ.Out(i))
	}
	sig := "(" + strings.Join(in, ", ") + ")"
	switch len(out) {
	case 0:
	case 1:
		sig += " " + out[0]
	default:
		sig += " (" + strings.Join(out, ", ") + ")"
	}
	return sig
}

// TestPublicAPIGolden pins the exported method sets of the public table
// kinds: every method and its exact signature, compared against
// testdata/api.golden. Methods promoted from embedded types count like
// declared ones, so a refactor that moves a method's body cannot drop or
// retype it unnoticed. Regenerate with -update-api only for an intended API
// change, and review the diff.
func TestPublicAPIGolden(t *testing.T) {
	var b strings.Builder
	for _, v := range []any{
		(*Table)(nil), (*Blocked)(nil), (*Concurrent)(nil), (*Sharded)(nil),
		(*Map[string, int])(nil), (*MultiMap[string, int])(nil),
	} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			fmt.Fprintf(&b, "(%s).%s%s\n", typ, m.Name, apiSignature(m))
		}
	}
	const path = "testdata/api.golden"
	if *updateAPI {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-api to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("public method sets differ from %s (rerun with -update-api after an intended change):\n%s",
			path, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only in want (-) and only in got (+). Every
// line names its type and method, so the lines are unique.
func lineDiff(want, got string) string {
	set := func(s string) map[string]bool {
		m := make(map[string]bool)
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := set(want), set(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
