// Layering check: the package layering of DESIGN.md §1, as a test. It
// lists every package of the module with `go list -deps` and fails on
// any repro/internal edge the layering does not allow: the TM layers
// know nothing of the serving stack, the store knows nothing of its
// log, the log knows nothing of who serves or ships it, and the
// replication stream has exactly one client.
package oftm_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

const internalPrefix = "repro/internal/"

// layerRules forbid each package in from (short names under
// repro/internal) to depend, directly or not, on any package in never.
var layerRules = []struct {
	from, never []string
	why         string
}{
	{[]string{"base", "core", "dstm", "nztm", "alg2", "locktm"}, []string{"kv", "wal", "server", "repl"},
		"the TM layers must not depend on the serving stack built on them"},
	{[]string{"kv"}, []string{"wal", "server"},
		"the store reaches its log only through the commit hook"},
	{[]string{"wal"}, []string{"server", "repl"},
		"the log must not depend on who serves or ships it"},
}

// testingImporters are the non-test internal packages allowed to
// import "testing", each with its reason.
var testingImporters = map[string]string{
	"bench":  "WriteJSON measures the perf grid with testing.Benchmark",
	"tmtest": "the shared engine conformance suites run as subtests of each engine's tests",
}

// goPackage is one non-standard package as `go list -deps` reports it.
type goPackage struct {
	path          string
	imports, deps []string
}

func listPackages(t *testing.T) []goPackage {
	t.Helper()
	// -e keeps listing through broken packages (an import cycle among
	// them), so a bad edge is reported by the rules rather than only as
	// a build error.
	out, err := exec.Command("go", "list", "-e", "-deps",
		"-f", `{{if not .Standard}}{{.ImportPath}}|{{join .Imports " "}}|{{join .Deps " "}}{{end}}`,
		"./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []goPackage
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "|")
		if len(f) != 3 {
			t.Fatalf("go list: unexpected line %q", line)
		}
		pkgs = append(pkgs, goPackage{f[0], strings.Fields(f[1]), strings.Fields(f[2])})
	}
	return pkgs
}

func TestLayering(t *testing.T) {
	pkgs := listPackages(t)
	deps := map[string][]string{}
	for _, p := range pkgs {
		deps[p.path] = p.deps
	}
	for _, r := range layerRules {
		for _, from := range r.from {
			d, ok := deps[internalPrefix+from]
			if !ok {
				t.Errorf("layering rule names %s, which go list does not report", from)
			}
			for _, never := range r.never {
				if slices.Contains(d, internalPrefix+never) {
					t.Errorf("%s depends on %s: %s", from, never, r.why)
				}
			}
		}
	}
	for _, p := range pkgs {
		if slices.Contains(p.imports, internalPrefix+"repl") && p.path != internalPrefix+"server" {
			t.Errorf("%s imports repl: only server may (it owns the replication role)", p.path)
		}
		name, internal := strings.CutPrefix(p.path, internalPrefix)
		if _, ok := testingImporters[name]; internal && !ok && slices.Contains(p.imports, "testing") {
			t.Errorf("%s imports testing from non-test code", p.path)
		}
	}
}
