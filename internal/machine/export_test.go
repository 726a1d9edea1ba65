package machine

import (
	"bytes"
	"encoding/json"
	"fmt"

	"explframe/internal/dram"
)

// WithPCP sizes the per-CPU page frame cache.
func WithPCP(batch, high int) Option {
	return func(s *Spec) { s.PCPBatch, s.PCPHigh = batch, high }
}

// WithECC ships the machine with SEC-DED correction.
func WithECC() Option { return func(s *Spec) { s.FaultModel.ECC = dram.ECCSecDed } }

// DecodeSpec parses one machine spec from JSON.  Unknown fields are
// rejected so a typoed knob fails loudly instead of silently simulating
// the wrong machine.
func DecodeSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("machine: decode spec: %w", err)
	}
	return s, nil
}
