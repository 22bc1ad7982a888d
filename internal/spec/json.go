package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Encode renders the spec in the canonical on-disk form: two-space indented
// JSON with a trailing newline. Encode(Decode(Encode(s))) is byte-identical
// to Encode(s) — the round-trip tests pin it — so specs diff cleanly under
// version control and a re-saved artifact never churns.
func Encode(s Spec) ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: encode: %w", err)
	}
	return append(data, '\n'), nil
}

// Decode parses a canonical spec document with DecodeStrict.
func Decode(data []byte) (Spec, error) {
	var s Spec
	if err := DecodeStrict(data, &s); err != nil {
		return Spec{}, fmt.Errorf("spec: decode: %w", err)
	}
	return s, nil
}

// DecodeStrict parses exactly one JSON document into v. Unknown fields are
// rejected: a typo'd or retired knob in a hand-edited file must fail loudly,
// not silently fall back to a default and run a different experiment than
// the author intended. Trailing data (a second document, say) is rejected
// for the same reason.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after the JSON document")
	}
	return nil
}

// EncodeGrids renders a grid list in the same canonical form as Encode.
func EncodeGrids(gs []Grid) ([]byte, error) {
	data, err := json.MarshalIndent(gs, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: encode grids: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeGrids parses a grid list with DecodeStrict.
func DecodeGrids(data []byte) ([]Grid, error) {
	var gs []Grid
	if err := DecodeStrict(data, &gs); err != nil {
		return nil, fmt.Errorf("spec: decode grids: %w", err)
	}
	return gs, nil
}
