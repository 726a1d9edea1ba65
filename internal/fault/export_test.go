package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// WithRound pins the fault to the entry of a specific 1-based round.
func WithRound(r int) Option { return func(m *Model) { m.Round = r } }

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
