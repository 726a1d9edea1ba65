package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"explframe/internal/fault"
	"explframe/internal/machine"
)

// FuzzSpecDecode feeds arbitrary bytes to ParseCampaign, the decoder every
// scenario file and service submission reaches, and strictly decodes the
// same bytes as a standalone machine spec and fault model, the documents
// `explframe describe` prints.  None may panic; Validate runs on every decoded
// value, Name and Hash on every valid one, and a valid value must survive
// Encode → Decode unchanged and with the same Name.  The corpus holds every
// preset, machine profile and fault preset, plus shapes Validate must
// reject: a trial count too large to allocate, a defence on a kind that
// never reads it, and a CPU count near MaxInt, which once looped forever
// deriving the cache geometry.
func FuzzSpecDecode(f *testing.F) {
	for _, p := range append(Presets(), CachePresets()...) {
		addEncoded(f, p.Spec.EncodeJSON)
	}
	for _, name := range machine.Names() {
		addEncoded(f, machine.MustGet(name).EncodeJSON)
	}
	for _, p := range fault.Presets() {
		addEncoded(f, p.Model.EncodeJSON)
	}
	f.Add([]byte(`{"kind": "pfa", "trials": 1125899906842624}`))
	f.Add([]byte(`{"kind": "pfa", "trials": 1, "defences": {"trr": true}}`))
	f.Add([]byte(`{"kind": "cache-probe", "trials": 1, "probe": {"technique": "prime-probe"}, "machine": {"cpus": 9223372036854775807}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if camp, err := ParseCampaign(data); err == nil && camp.Validate() == nil {
			for _, s := range camp.Specs {
				s.Hash()
				enc, err := s.EncodeJSON()
				if err != nil {
					t.Fatalf("%s: encode: %v", s.Name(), err)
				}
				back, err := DecodeSpec(enc)
				checkRoundTrip(t, s, back, err, s.Name(), back.Name())
			}
			enc, err := camp.EncodeJSON()
			if err != nil {
				t.Fatalf("campaign encode: %v", err)
			}
			back, err := DecodeCampaign(enc)
			checkRoundTrip(t, camp, back, err, camp.Name, back.Name)
		}
		var ms machine.Spec
		if err := decodeStrict(data, &ms); err == nil && ms.Validate() == nil {
			ms.Hash()
			enc, err := ms.EncodeJSON()
			if err != nil {
				t.Fatalf("%s: encode: %v", ms.CanonicalName(), err)
			}
			var back machine.Spec
			err = decodeStrict(enc, &back)
			checkRoundTrip(t, ms, back, err, ms.CanonicalName(), back.CanonicalName())
		}
		var m fault.Model
		if err := decodeStrict(data, &m); err == nil && m.Validate() == nil {
			m.Hash()
			enc, err := m.EncodeJSON()
			if err != nil {
				t.Fatalf("%s: encode: %v", m.Name(), err)
			}
			var back fault.Model
			err = decodeStrict(enc, &back)
			checkRoundTrip(t, m, back, err, m.Name(), back.Name())
		}
	})
}

// decodeStrict decodes one JSON document into v, rejecting unknown fields
// the way every spec decoder does.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// addEncoded seeds the corpus with one value's JSON encoding.
func addEncoded(f *testing.F, encode func() ([]byte, error)) {
	data, err := encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
}

// checkRoundTrip fails unless decoding the encoding of in gave back an
// equal value under the same name.
func checkRoundTrip(t *testing.T, in, back any, err error, name, backName string) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: decoding its own encoding: %v", name, err)
	}
	if !reflect.DeepEqual(in, back) {
		t.Fatalf("%s: round trip changed the value:\n in: %+v\nout: %+v", name, in, back)
	}
	if name != backName {
		t.Fatalf("round trip renamed %q to %q", name, backName)
	}
}
