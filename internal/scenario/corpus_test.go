package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/rlb-project/rlb/internal/spec"
)

// corpusEntries parses every committed seed-corpus file (Go's "go test fuzz
// v1" format: a header line, then one quoted []byte argument per line) and
// returns the raw fuzz inputs.
func corpusEntries(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzScenario")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("no committed corpus: %v", err)
	}
	out := make(map[string][]byte)
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a v1 corpus file (%d lines)", f.Name(), len(lines))
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		s, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: unquoting corpus bytes: %v", f.Name(), err)
		}
		out[f.Name()] = []byte(s)
	}
	if len(out) == 0 {
		t.Fatal("corpus directory is empty")
	}
	return out
}

// TestCommittedCorpusStillDecodes pins the fuzz-input format across the spec
// migration: every committed corpus entry must still decode deterministically
// into a normalized in-envelope spec. A failure here means the byte-stream
// decoder changed meaning and the committed corpus now exercises different
// scenarios than the ones it was minimized for.
func TestCommittedCorpusStillDecodes(t *testing.T) {
	for name, in := range corpusEntries(t) {
		s := DecodeBytes(in)
		n := s.Normalize()
		js, _ := json.Marshal(s)
		jn, _ := json.Marshal(n)
		if string(js) != string(jn) {
			t.Errorf("%s: decoded spec is not a Normalize fixpoint:\n%s\nvs\n%s", name, js, jn)
		}
		if a, b := DecodeBytes(in), DecodeBytes(in); a.Params() != b.Params() {
			t.Errorf("%s: decode nondeterministic", name)
		}
	}
}

// TestCommittedReproStillReplays pins the repro-file format: the committed
// fixture must load, its spec must survive the canonical JSON round trip,
// and the recorded scenario must still pass the property suite (it records a
// long-fixed failure, kept as a format regression fixture).
func TestCommittedReproStillReplays(t *testing.T) {
	path := filepath.Join("testdata", "repro_fixture.json")
	r, fail, err := Replay(path)
	if err != nil {
		t.Fatalf("committed repro no longer loads: %v", err)
	}
	if r.Property == "" || r.Detail == "" {
		t.Fatalf("fixture lost its verdict fields: %+v", r)
	}
	data, err := spec.Encode(r.Spec)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := spec.Decode(data)
	if err != nil {
		t.Fatalf("fixture spec does not survive the canonical round trip: %v", err)
	}
	if decoded.Params() != r.Spec.Params() {
		t.Fatalf("round trip changed the fixture spec:\n%s\nvs\n%s", decoded.Params(), r.Spec.Params())
	}
	if fail != nil {
		t.Fatalf("fixture scenario fails the property suite again: %v", fail)
	}
}

// TestLoadReproRejectsUnknownFields holds repro files to spec.Decode's
// strictness: a retired spec field, an unknown top-level field, or a second
// document after the first must fail to load instead of replaying a
// different scenario than the one recorded.
func TestLoadReproRejectsUnknownFields(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "repro_fixture.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, data, errHas string
	}{
		{"retired spec field", strings.Replace(string(fixture), `"simSeed": 7,`, `"simSeed": 7, "probeUs": 50,`, 1), `"probeUs"`},
		{"unknown top-level field", strings.Replace(string(fixture), `"property":`, `"verdict": "fail", "property":`, 1), `"verdict"`},
		{"trailing document", string(fixture) + string(fixture), "trailing data"},
	} {
		if c.data == string(fixture) {
			t.Fatalf("%s: fixture edit did not apply", c.name)
		}
		path := filepath.Join(t.TempDir(), "repro.json")
		if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadRepro(path); err == nil || !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("%s: want error containing %q, got %v", c.name, c.errHas, err)
		}
	}
}
