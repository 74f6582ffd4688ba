package d2m

// Registry coverage: the mechanism registry is the one kind→config map,
// so the root Kind constants, the advertised kind lists and the docs
// must never drift from it. What the registered constructors build is
// pinned by the golden Result digests (TestGolden).

import (
	"os"
	"strings"
	"testing"

	"d2m/internal/core"
)

// TestRegistryCoverage checks the registry, the root Kind enum and the
// advertised name list can never drift: orders are dense and match the
// Kind constants, every entry round-trips through String/ParseKind,
// and the test matrices' allKinds() covers every registered mechanism.
func TestRegistryCoverage(t *testing.T) {
	mechs := core.Mechanisms()
	if len(mechs) == 0 {
		t.Fatal("empty mechanism registry")
	}
	for i, m := range mechs {
		if m.Order != i {
			t.Errorf("registry order not dense: entry %d (%s) has Order %d", i, m.Name, m.Order)
		}
		if m.Baseline == m.D2M {
			t.Errorf("%s: Baseline=%v D2M=%v, want exactly one family", m.Name, m.Baseline, m.D2M)
		}
		k := Kind(m.Order)
		if k.String() != m.Name {
			t.Errorf("Kind(%d).String() = %q, registry name %q", m.Order, k.String(), m.Name)
		}
		parsed, err := ParseKind(m.Name)
		if err != nil || parsed != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", m.Name, parsed, err, k)
		}
	}
	if got, want := len(allKinds()), len(mechs); got != want {
		t.Errorf("allKinds() covers %d kinds, registry has %d", got, want)
	}
	named := map[Kind]bool{Base2L: true, Base3L: true, D2MFS: true, D2MNS: true,
		D2MNSR: true, D2MHybrid: true, D2MAdaptive: true, D2MLevelPred: true}
	for _, k := range allKinds() {
		if !named[k] {
			t.Errorf("registered kind %v (order %d) has no root Kind constant", k, int(k))
		}
	}
	if len(named) != len(mechs) {
		t.Errorf("%d root Kind constants, %d registered mechanisms", len(named), len(mechs))
	}
}

// TestDocsKindCoverage keeps docs/api.md from drifting behind the
// registry: the API documentation must name every advertised kind.
func TestDocsKindCoverage(t *testing.T) {
	doc, err := os.ReadFile("docs/api.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	for _, name := range KindNames() {
		if !strings.Contains(text, name) {
			t.Errorf("docs/api.md does not mention kind %q", name)
		}
	}
}
