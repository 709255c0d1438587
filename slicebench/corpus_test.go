package main

import (
	"testing"

	"specslice"
	"specslice/internal/server"
)

func TestPlanHashFollowsSeed(t *testing.T) {
	for name := range specs {
		a, err := buildPlan(name, 7, 1, nSessions)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := buildPlan(name, 7, 1, nSessions)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.hash != b.hash {
			t.Errorf("%s: seed 7 gave hashes %s and %s", name, a.hash, b.hash)
		}
		c, err := buildPlan(name, 8, 1, nSessions)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same hash %s", name, a.hash)
		}
	}
}

// Every program a plan sends must be a family of its own, or the server
// would advance one from another instead of serving the intended tier.
func TestSaltedVersionsHaveDistinctFamilies(t *testing.T) {
	for _, name := range []string{"warm_read", "cold_open", "disk_restart"} {
		p, err := buildPlan(name, 3, 1, nSessions)
		if err != nil {
			t.Fatal(err)
		}
		families := map[string]int{}
		for i, v := range p.versions {
			prog, err := specslice.Parse(v.source())
			if err != nil {
				t.Fatalf("%s: version %d: %v", name, i, err)
			}
			fam := server.FamilyKey(prog.ProcNames())
			if j, dup := families[fam]; dup {
				t.Fatalf("%s: versions %d and %d share a family", name, j, i)
			}
			families[fam] = i
			if prog.Source() != v.source() {
				t.Fatalf("%s: version %d is not in normalized form", name, i)
			}
		}
	}
}

func TestOpIDFromBody(t *testing.T) {
	body := []byte(`{"program":"int main() {}","criteria":[{"kind":"printf","label":"op41"},{"kind":"line","line":3,"label":"op41.1"}]}`)
	if id, ok := opIDFromBody(body); !ok || id != 41 {
		t.Fatalf("got %d, %v; want 41", id, ok)
	}
	if _, ok := opIDFromBody([]byte(`{"criteria":[{"kind":"printf"}]}`)); ok {
		t.Fatal("found an id in an unlabelled body")
	}
}
