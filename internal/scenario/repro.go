package scenario

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/rlb-project/rlb/internal/spec"
)

// Repro is the on-disk reproduction record the shrinker writes for a failing
// scenario: the minimized spec plus which property it violated and how.
// `rlbsim -repro <file>` (and Replay below) re-runs the full property suite
// on the spec alone — no seed or corpus bytes needed.
type Repro struct {
	Property string `json:"property"`
	Detail   string `json:"detail"`
	Spec     Spec   `json:"spec"`
}

// WriteRepro serializes the failure as an indented-JSON repro file.
func WriteRepro(path string, f *Failure) error {
	data, err := json.MarshalIndent(Repro{Property: f.Property, Detail: f.Detail, Spec: f.Spec}, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: marshal repro: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadRepro parses a repro file with spec.DecodeStrict, so a stale file
// carrying a retired field fails to load instead of replaying a different
// scenario than the one it recorded.
func LoadRepro(path string) (Repro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Repro{}, fmt.Errorf("scenario: read repro: %w", err)
	}
	var r Repro
	if err := spec.DecodeStrict(data, &r); err != nil {
		return Repro{}, fmt.Errorf("scenario: parse repro %s: %w", path, err)
	}
	return r, nil
}

// Replay loads a repro file and re-runs the property suite on its spec.
// Returns the record, the current verdict (nil = the failure no longer
// reproduces, i.e. the bug is fixed), and any file/parse error.
func Replay(path string) (Repro, *Failure, error) {
	r, err := LoadRepro(path)
	if err != nil {
		return Repro{}, nil, err
	}
	return r, Check(r.Spec), nil
}
