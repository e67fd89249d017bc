package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const example1Spec = `
peer P1 {
  relation r1/2
  fact r1(a, b).
  fact r1(s, t).
  trust less P2
  trust same P3
  dec P2: r2(X,Y) -> r1(X,Y).
  dec P3: r1(X,Y), r3(X,Z) -> Y = Z.
}
peer P2 {
  relation r2/2
  fact r2(c, d).
  fact r2(a, e).
}
peer P3 {
  relation r3/2
  fact r3(a, f).
  fact r3(s, u).
}
`

func writeSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sys.p2p")
	if err := os.WriteFile(path, []byte(example1Spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestQueryAllEngines(t *testing.T) {
	path := writeSpec(t)
	for _, engine := range []string{"repair", "lp", "lav", "rewrite"} {
		var out bytes.Buffer
		err := run([]string{
			"-system", path, "-peer", "P1",
			"-query", "r1(X,Y)", "-vars", "X,Y",
			"-engine", engine,
		}, &out)
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		s := out.String()
		if !strings.Contains(s, "3 peer consistent answer(s):") {
			t.Fatalf("engine %s output:\n%s", engine, s)
		}
		for _, tup := range []string{"(a,b)", "(a,e)", "(c,d)"} {
			if !strings.Contains(s, tup) {
				t.Fatalf("engine %s missing %s:\n%s", engine, tup, s)
			}
		}
	}
}

func TestPossibleFlag(t *testing.T) {
	path := writeSpec(t)
	var out bytes.Buffer
	err := run([]string{
		"-system", path, "-peer", "P1",
		"-query", "r1(X,Y)", "-vars", "X,Y", "-possible",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// Brave answers additionally include (s,t).
	if !strings.Contains(s, "4 possible answer(s):") || !strings.Contains(s, "(s,t)") {
		t.Fatalf("output:\n%s", s)
	}
}

func TestSolutionsFlag(t *testing.T) {
	path := writeSpec(t)
	var out bytes.Buffer
	if err := run([]string{"-system", path, "-peer", "P1", "-solutions"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 solution(s) for peer P1:") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestProgramFlag(t *testing.T) {
	path := writeSpec(t)
	var out bytes.Buffer
	if err := run([]string{"-system", path, "-peer", "P1", "-program"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "r1_p(X1,X2) :- r1(X1,X2), not -r1_p(X1,X2).") {
		t.Fatalf("program output:\n%s", s)
	}
}

func TestRewriteEngineShowsFormula(t *testing.T) {
	path := writeSpec(t)
	var out bytes.Buffer
	err := run([]string{
		"-system", path, "-peer", "P1",
		"-query", "r1(X,Y)", "-vars", "X,Y", "-engine", "rewrite",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rewritten query:") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestErrors(t *testing.T) {
	path := writeSpec(t)
	cases := [][]string{
		{},                               // missing flags
		{"-system", path},                // missing peer
		{"-system", path, "-peer", "P1"}, // missing query
		{"-system", "/does/not/exist", "-peer", "P1", "-solutions"},
		{"-system", path, "-peer", "ZZ", "-solutions"},
		{"-system", path, "-peer", "P1", "-query", "r1(X,Y)", "-vars", "X,Y", "-engine", "bogus"},
		{"-system", path, "-peer", "P1", "-query", "r1(X,Y) & r2(X,Y)", "-vars", "X,Y", "-engine", "rewrite"},
		{"-system", path, "-peer", "ZZ", "-query", "r1(X,Y)", "-vars", "X,Y", "-engine", "lav"},
		{"-system", path, "-peer", "ZZ", "-query", "r1(X,Y)", "-vars", "X,Y", "-delegate"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestSlicedFlag(t *testing.T) {
	path := writeSpec(t)
	for _, engine := range []string{"repair", "lp"} {
		var full, sliced bytes.Buffer
		if err := run([]string{
			"-system", path, "-peer", "P1",
			"-query", "r1(X,Y)", "-vars", "X,Y", "-engine", engine,
		}, &full); err != nil {
			t.Fatalf("engine %s full: %v", engine, err)
		}
		if err := run([]string{
			"-system", path, "-peer", "P1",
			"-query", "r1(X,Y)", "-vars", "X,Y", "-engine", engine, "-sliced",
		}, &sliced); err != nil {
			t.Fatalf("engine %s sliced: %v", engine, err)
		}
		if full.String() != sliced.String() {
			t.Fatalf("engine %s: sliced output differs:\n--- full ---\n%s--- sliced ---\n%s",
				engine, full.String(), sliced.String())
		}
	}
}

func TestStatsPrintsSliceStatistics(t *testing.T) {
	path := writeSpec(t)
	var out bytes.Buffer
	err := run([]string{
		"-system", path, "-peer", "P1",
		"-query", "r1(X,Y)", "-vars", "X,Y", "-engine", "lp",
		"-sliced", "-stats",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"slice: relations ",
		"constraints kept ",
		"slice: lp rules kept ",
		"3 peer consistent answer(s):",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in -stats output:\n%s", want, s)
		}
	}
}

func TestDelegateFlag(t *testing.T) {
	path := writeSpec(t)
	// Direct semantics: delegation falls back to the centralized path
	// and the answers match Example 1's PCAs.
	var direct bytes.Buffer
	if err := run([]string{
		"-system", path, "-peer", "P1",
		"-query", "r1(X,Y)", "-vars", "X,Y",
		"-delegate", "-stats",
	}, &direct); err != nil {
		t.Fatal(err)
	}
	s := direct.String()
	if !strings.Contains(s, "delegation: fell back") || !strings.Contains(s, "direct semantics") {
		t.Fatalf("direct -delegate should report the fallback:\n%s", s)
	}
	if !strings.Contains(s, "3 peer consistent answer(s):") {
		t.Fatalf("direct -delegate answers:\n%s", s)
	}
	// Transitive semantics: Example 1 is a pure fetch plan, which the
	// gate admits; the report names both fetched peers.
	var trans bytes.Buffer
	if err := run([]string{
		"-system", path, "-peer", "P1",
		"-query", "r1(X,Y)", "-vars", "X,Y",
		"-delegate", "-transitive", "-stats",
	}, &trans); err != nil {
		t.Fatal(err)
	}
	s = trans.String()
	if !strings.Contains(s, "delegation: delegated") || !strings.Contains(s, "fetches=[P2 P3]") {
		t.Fatalf("transitive -delegate should run the plan:\n%s", s)
	}
}
