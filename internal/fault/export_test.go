package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// DecodeSpec parses one fault model from JSON.  Unknown fields are
// rejected so a typoed knob fails loudly instead of silently running a
// different fault campaign.
func DecodeSpec(data []byte) (Model, error) {
	var m Model
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Model{}, fmt.Errorf("fault: decode model: %w", err)
	}
	return m, nil
}
