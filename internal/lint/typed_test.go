package lint_test

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"react/internal/lint"
)

// loadTypedFixture runs the full default CLI configuration (both tiers
// plus staleness) over the typed fixture module.
func loadTypedFixture(t *testing.T) (*lint.Runner, []lint.Finding) {
	t.Helper()
	mod, err := lint.LoadModule("testdata/typedmod")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if mod.Path != "typedfix" {
		t.Fatalf("module path = %q, want typedfix", mod.Path)
	}
	runner := &lint.Runner{Typed: lint.DefaultTypedAnalyzers(), StaleCheck: true}
	return runner, runner.Run(mod)
}

// TestTypedAnalyzersOnFixtures is the contract for the typed tier:
// exactly these findings at these sites. Each analyzer has a seeded
// positive, a negative control that must stay silent, and a reasoned
// suppression that must be honored (and not reported stale).
func TestTypedAnalyzersOnFixtures(t *testing.T) {
	_, findings := loadTypedFixture(t)
	got := byAnalyzer(findings)

	want := map[string][]string{
		"lockorder": {
			"internal/locka/locka.go:24",     // a ⇄ b cycle, anchored at first edge
			"internal/locka/locka.go:47",     // self-deadlock via Reentrant → bump
			"internal/funcval/funcval.go:64", // Gauge ⇄ Store, through an observer kept in an atomic.Value
		},
		"hookreentrancy": {
			"internal/engine/engine.go:42", // direct: BadHook fires Deliver under mu
			"internal/engine/engine.go:62", // interprocedural: emit poisoned by Indirect
		},
		"blockingunderlock": {
			"internal/block/block.go:22",     // channel send under mu
			"internal/block/block.go:29",     // channel receive under mu
			"internal/block/block.go:37",     // time.Sleep under mu
			"internal/sched/sched.go:55",     // handed under mu to a func that runs it (the scheduled one at :53 is not)
			"internal/funcval/funcval.go:27", // closure in a local, called by a plain helper under mu (the probe at :140 is only stored)
		},
		"clocktaint": {
			"internal/gateway/gateway.go:21", // laundered wall read into sink call
			"internal/gateway/gateway.go:27", // wall read into sink-type literal field
			"internal/gateway/gateway.go:33", // RNG seeded from the wall clock
		},
		"staleignore": {
			"internal/lockb/lockb.go:35", // suppression with no diagnostic left
		},
	}

	for analyzer, wantSites := range want {
		t.Run(analyzer, func(t *testing.T) {
			gotSites := append([]string{}, got[analyzer]...)
			sort.Strings(gotSites)
			wantSorted := append([]string{}, wantSites...)
			sort.Strings(wantSorted)
			if fmt.Sprint(gotSites) != fmt.Sprint(wantSorted) {
				t.Errorf("findings mismatch\n got: %v\nwant: %v", gotSites, wantSorted)
			}
		})
	}
	for analyzer := range got {
		if _, ok := want[analyzer]; !ok {
			t.Errorf("unexpected findings from analyzer %q: %v", analyzer, got[analyzer])
		}
	}
}

// TestTypedFindingMessages pins the message shapes downstream tooling
// greps for, including the interprocedural provenance suffix.
func TestTypedFindingMessages(t *testing.T) {
	_, findings := loadTypedFixture(t)
	wantSubstrings := []string{
		"lock-order cycle (potential deadlock): locka.Pair.a ⇄ locka.Pair.b",
		"lock locka.Pair.a acquired while already held in locka.(*locka.Pair).bump (self-deadlock)",
		"held by caller locka.(*locka.Pair).Reentrant at internal/locka/locka.go:43",
		"hook engine.Hooks.Deliver invoked in engine.(*engine.Engine).BadHook with lock(s) held: engine.Engine.mu",
		"held by caller engine.(*engine.Engine).Indirect at internal/engine/engine.go:70",
		"blocking operation (channel send) in block.(*block.Q).SendLocked while holding block.Q.mu",
		"blocking operation (time.Sleep) in block.(*block.Q).SleepLocked",
		"wall-clock/RNG-derived value flows into scheduling sink engine.(*engine.Engine).Submit (argument 1)",
		"wall-clock/RNG-derived value stored in engine.Task literal (field At)",
		"RNG seeded from a wall-clock-derived value (rand.NewSource)",
		"stale suppression: no \"lockorder\" diagnostic here any more",
	}
	all := fmt.Sprint(findings)
	for _, want := range wantSubstrings {
		if !strings.Contains(all, want) {
			t.Errorf("no finding contains %q\nfindings:\n%v", want, findings)
		}
	}
}

// TestTypedDeterministicOutput runs the typed tier twice and requires
// identical ordered findings — map-heavy dataflow must not leak
// iteration order.
func TestTypedDeterministicOutput(t *testing.T) {
	_, first := loadTypedFixture(t)
	_, second := loadTypedFixture(t)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("two runs disagree:\n%v\n%v", first, second)
	}
}

// TestRenderLockOrderDoc pins the generated document's structure: the
// acyclic order, the observed-edge table, leaf locks, and the cycle
// section.
func TestRenderLockOrderDoc(t *testing.T) {
	runner, _ := loadTypedFixture(t)
	if runner.TM == nil {
		t.Fatal("typed tier did not populate runner.TM")
	}
	doc, err := lint.RenderLockOrderDoc(runner.TM)
	if err != nil {
		t.Fatalf("RenderLockOrderDoc: %v", err)
	}
	for _, want := range []string{
		"# Lock ordering",
		"Generated by `reactlint`; do not edit",
		"1. `lockb.Ordered.outer`",
		"2. `lockb.Ordered.inner`",
		"| `locka.Pair.a` | `locka.Pair.b` | `internal/locka/locka.go:24` in `locka.(*locka.Pair).lockB` |",
		"| `lockb.Ordered.outer` | `lockb.Ordered.inner` | `internal/lockb/lockb.go:20` in `lockb.(*lockb.Ordered).Both` |",
		"| `tapbus.Bus.mu` | `tapbus.Counter.mu` | `internal/tapbus/tapbus.go:49` in `tapbus.(*tapbus.Counter).Observe` |",
		"- `block.Q.mu`",
		"- `engine.Engine.mu`",
		"- `tapbus.Gate.mu`", // a func of another type handed to Bus is no tap
		"| `funcval.Store.mu` | `funcval.Gauge.mu` | `internal/funcval/funcval.go:79` in `funcval.(*funcval.Gauge).Observe` |",
		"- `funcval.Host.mu`", // the probe registered under it runs from Scrape
		"## Cycles",
		"locka.Pair.a ⇄ locka.Pair.b",
		"funcval.Gauge.mu ⇄ funcval.Store.mu",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("doc missing %q\n---\n%s", want, doc)
		}
	}
	// Rendering twice must be byte-identical: the doc is checked in and
	// CI diffs a regeneration against it.
	doc2, err := lint.RenderLockOrderDoc(runner.TM)
	if err != nil || doc != doc2 {
		t.Errorf("RenderLockOrderDoc not deterministic (err=%v)", err)
	}
}

// TestLockOrderDocMatchesTree regenerates the lock-order document for
// this module and requires docs/LOCKORDER.md to match it byte for byte:
// the checked-in order is the proof only while it describes the code.
func TestLockOrderDocMatchesTree(t *testing.T) {
	mod, err := lint.LoadModule("../..")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	tm, err := lint.TypeCheck(mod)
	if err != nil {
		t.Fatalf("TypeCheck: %v", err)
	}
	doc, err := lint.RenderLockOrderDoc(tm)
	if err != nil {
		t.Fatalf("RenderLockOrderDoc: %v", err)
	}
	want, err := os.ReadFile("../../docs/LOCKORDER.md")
	if err != nil {
		t.Fatal(err)
	}
	if doc != string(want) {
		t.Error("docs/LOCKORDER.md is out of date; run 'make lockorder' and review the diff")
	}
}

// TestTypeCheckFailure: a module that does not type-check yields a
// single "lint" finding and skips the typed tier instead of reasoning
// from partial types.
func TestTypeCheckFailure(t *testing.T) {
	mod, err := lint.LoadModule("testdata/brokenmod")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	runner := &lint.Runner{Analyzers: []lint.Analyzer{}, Typed: lint.DefaultTypedAnalyzers()}
	findings := runner.Run(mod)
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly one type-check failure", findings)
	}
	f := findings[0]
	if f.Analyzer != "lint" || f.File != "go.mod" || !strings.Contains(f.Message, "typed tier skipped") {
		t.Errorf("unexpected failure finding: %v", f)
	}
	if runner.TM != nil {
		t.Errorf("runner.TM populated despite type-check failure")
	}
}

// TestTypedTierSkippedWhenEmpty: with no typed analyzers selected the
// module is never type-checked (the syntactic tier stays cheap).
func TestTypedTierSkippedWhenEmpty(t *testing.T) {
	// brokenmod would fail type-checking; with Typed empty its findings
	// must come from the syntactic tier alone.
	mod, err := lint.LoadModule("testdata/brokenmod")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	runner := &lint.Runner{Analyzers: []lint.Analyzer{}}
	if findings := runner.Run(mod); len(findings) != 0 {
		t.Errorf("empty-suite run reported %v", findings)
	}
}
