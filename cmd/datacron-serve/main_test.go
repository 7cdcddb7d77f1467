package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestFlagsMatchOperations holds the daemon's flags against OPERATIONS.md's
// "Flag reference": every flag has a row whose default is the flag's
// DefValue, and every row names a flag the daemon defines.
func TestFlagsMatchOperations(t *testing.T) {
	docs, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	ref := string(docs)
	start := strings.Index(ref, "\n## Flag reference\n")
	if start < 0 {
		t.Fatal(`OPERATIONS.md has no "## Flag reference" section`)
	}
	ref = ref[start+1:]
	if end := strings.Index(ref, "\n## "); end >= 0 {
		ref = ref[:end]
	}

	// A row is | `-name` | `default` or *(empty)* | meaning |.
	row := regexp.MustCompile("(?m)^\\| `(-[a-z0-9-]+)` \\| (`[^`]*`|\\*\\(empty\\)\\*) \\|")
	documented := map[string]string{}
	for _, m := range row.FindAllStringSubmatch(ref, -1) {
		name, def := m[1][1:], strings.Trim(m[2], "`")
		if def == "*(empty)*" {
			def = ""
		}
		if _, dup := documented[name]; dup {
			t.Errorf("OPERATIONS.md documents -%s twice", name)
		}
		documented[name] = def
	}

	defined := 0
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return // the testing package's own flags
		}
		defined++
		def, ok := documented[f.Name]
		switch {
		case !ok:
			t.Errorf("-%s has no row in OPERATIONS.md's flag reference", f.Name)
		case def != f.DefValue:
			t.Errorf("-%s: OPERATIONS.md gives the default %q, the flag %q", f.Name, def, f.DefValue)
		}
	})
	for name := range documented {
		if flag.CommandLine.Lookup(name) == nil {
			t.Errorf("OPERATIONS.md documents -%s, which the daemon does not define", name)
		}
	}
	if defined == 0 || len(documented) == 0 {
		t.Fatalf("%d flags defined, %d rows parsed: parsing broke?", defined, len(documented))
	}
}
