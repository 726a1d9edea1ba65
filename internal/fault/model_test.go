package fault

import (
	"strings"
	"testing"

	"explframe/internal/stats"
)

func TestValidateAcceptsPresetsAndPinnedVariants(t *testing.T) {
	for _, p := range Presets() {
		if err := p.Model.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", p.Name, err)
		}
	}
	good := []Model{
		New(PreciseBit, WithPosition(0)),
		New(PreciseBit, WithPosition(63), WithRound(29)),
		New(Nibble, WithPosition(15)),
		New(PreciseByte, WithPosition(3), WithRound(9)),
		New(RandomBytes, WithWidth(8)),
	}
	for _, m := range good {
		if err := m.Validate(); err != nil {
			t.Errorf("%s invalid: %v", m.Name(), err)
		}
	}
}

// TestValidateRejections drives every Validate clause, mirroring the
// scenario spec suite: each case names the substring the error must carry.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		m    Model
		want string
	}{
		{"zero value", Model{}, "kind: unknown"},
		{"unknown kind", Model{Kind: "laser", Position: Anywhere}, "kind: unknown"},
		{"negative round", New(PreciseBit, WithRound(-1)), "round: -1"},
		{"position below anywhere", New(Nibble, WithPosition(-2)), "position: -2"},
		{"random-bytes pinned position", Model{Kind: RandomBytes, Position: 0, Width: 1}, "fixed on kind random-bytes"},
		{"random-bytes zero width", Model{Kind: RandomBytes, Position: Anywhere}, "width: 0"},
		{"random-bytes negative width", New(RandomBytes, WithWidth(-2)), "width: -2"},
		{"width on precise-bit", New(PreciseBit, WithWidth(2)), "only random-bytes takes a width"},
		{"width on nibble", New(Nibble, WithWidth(1)), "only random-bytes takes a width"},
		{"width on precise-byte", New(PreciseByte, WithWidth(3)), "only random-bytes takes a width"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.m.Validate()
			if err == nil {
				t.Fatalf("Validate() accepted %+v", tc.m)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Validate must join independent violations rather than stop at the first.
func TestValidateJoinsErrors(t *testing.T) {
	m := Model{Kind: "laser", Round: -3, Position: -5}
	err := m.Validate()
	if err == nil {
		t.Fatal("triple-fault model accepted")
	}
	for _, want := range []string{"kind:", "round:", "position:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q missing %q", err, want)
		}
	}
}

func TestNameAndHash(t *testing.T) {
	cases := []struct {
		m    Model
		want string
	}{
		{New(PreciseBit), "precise-bit@any"},
		{New(PreciseBit, WithPosition(12)), "precise-bit@12"},
		{New(Nibble, WithRound(29)), "nibble@any+r29"},
		{New(PreciseByte, WithPosition(0)), "precise-byte@0"},
		{New(RandomBytes), "random-bytes@anyx1"},
		{New(RandomBytes, WithWidth(2)), "random-bytes@anyx2"},
	}
	seen := map[uint64]string{}
	for _, tc := range cases {
		if got := tc.m.Name(); got != tc.want {
			t.Errorf("Name() = %q want %q", got, tc.want)
		}
		h := tc.m.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("hash collision between %q and %q", prev, tc.m.Name())
		}
		seen[h] = tc.m.Name()
		if tc.m.Hash() != stats.FNV64(tc.m.Name()) {
			t.Errorf("%s: Hash is not FNV64(Name)", tc.m.Name())
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, p := range Presets() {
		data, err := p.Model.EncodeJSON()
		if err != nil {
			t.Fatalf("%s: encode: %v", p.Name, err)
		}
		back, err := DecodeSpec(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", p.Name, err)
		}
		if back != p.Model {
			t.Fatalf("%s: round-trip %+v != %+v", p.Name, back, p.Model)
		}
	}
}

func TestDecodeSpecRejectsUnknownFields(t *testing.T) {
	_, err := DecodeSpec([]byte(`{"kind":"nibble","position":-1,"widht":2}`))
	if err == nil || !strings.Contains(err.Error(), "widht") {
		t.Fatalf("typoed field accepted: %v", err)
	}
}

func TestLookupPreset(t *testing.T) {
	p, ok := LookupPreset("random-2byte")
	if !ok || p.Model.Width != 2 {
		t.Fatalf("LookupPreset(random-2byte) = %+v, %v", p, ok)
	}
	if _, ok := LookupPreset("nope"); ok {
		t.Fatal("unknown preset resolved")
	}
}

func TestDrawShapes(t *testing.T) {
	rng := stats.NewRNG(1)
	const block = 8
	for _, p := range Presets() {
		for trial := 0; trial < 50; trial++ {
			inj, err := p.Model.Draw(rng, block)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			if len(inj.Mask) != block {
				t.Fatalf("%s: mask length %d", p.Name, len(inj.Mask))
			}
			nz := 0
			for _, b := range inj.Mask {
				if b != 0 {
					nz++
				}
			}
			switch p.Model.Kind {
			case PreciseBit:
				b := inj.Mask[inj.Position/8]
				if nz != 1 || b != 0x80>>uint(inj.Position%8) {
					t.Fatalf("%s: mask %x position %d", p.Name, inj.Mask, inj.Position)
				}
			case Nibble:
				b := inj.Mask[inj.Position/2]
				if inj.Position%2 == 0 {
					b >>= 4
				} else if b>>4 != 0 {
					t.Fatalf("%s: fault crossed into the high nibble: %x", p.Name, inj.Mask)
				}
				if nz != 1 || b&0xF == 0 {
					t.Fatalf("%s: mask %x position %d", p.Name, inj.Mask, inj.Position)
				}
			case PreciseByte:
				if nz != 1 || inj.Mask[inj.Position] == 0 {
					t.Fatalf("%s: mask %x position %d", p.Name, inj.Mask, inj.Position)
				}
			case RandomBytes:
				if nz != p.Model.Width || inj.Position != Anywhere {
					t.Fatalf("%s: %d faulted bytes (want %d), position %d", p.Name, nz, p.Model.Width, inj.Position)
				}
			}
		}
	}
}

func TestDrawPinnedChoices(t *testing.T) {
	rng := stats.NewRNG(2)
	inj, err := New(PreciseBit, WithPosition(9), WithRound(5)).Draw(rng, 8)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Position != 9 || inj.Mask[1] != 0x40 {
		t.Fatalf("pinned draw: %+v", inj)
	}
	// A pinned precise-bit draw consumes no randomness at all, and a pinned
	// precise-byte draw consumes exactly one value draw — the compatibility
	// contract the results book relies on.
	a, b := stats.NewRNG(3), stats.NewRNG(3)
	if _, err := New(PreciseBit, WithPosition(0)).Draw(a, 16); err != nil {
		t.Fatal(err)
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("pinned precise-bit draw consumed randomness")
	}
	a, b = stats.NewRNG(4), stats.NewRNG(4)
	inj, err = New(PreciseByte, WithPosition(2)).Draw(a, 16)
	if err != nil {
		t.Fatal(err)
	}
	if want := byte(b.Intn(255) + 1); inj.Mask[2] != want {
		t.Fatalf("pinned precise-byte draw: mask %x want %x", inj.Mask[2], want)
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("pinned precise-byte draw consumed extra randomness")
	}
}

func TestDrawBoundsErrors(t *testing.T) {
	rng := stats.NewRNG(5)
	cases := []Model{
		New(PreciseBit, WithPosition(64)),
		New(Nibble, WithPosition(16)),
		New(PreciseByte, WithPosition(8)),
		New(RandomBytes, WithWidth(9)),
	}
	for _, m := range cases {
		if _, err := m.Draw(rng, 8); err == nil {
			t.Errorf("%s: out-of-range draw accepted for an 8-byte block", m.Name())
		}
	}
	if _, err := (Model{Kind: "laser"}).Draw(rng, 8); err == nil {
		t.Error("invalid model drew an injection")
	}
}

func TestDrawDeterminism(t *testing.T) {
	for _, p := range Presets() {
		a := stats.NewRNG(11)
		b := stats.NewRNG(11)
		for i := 0; i < 20; i++ {
			ia, err := p.Model.Draw(a, 16)
			if err != nil {
				t.Fatal(err)
			}
			ib, _ := p.Model.Draw(b, 16)
			if ia.Position != ib.Position || string(ia.Mask) != string(ib.Mask) {
				t.Fatalf("%s: same seed diverged at draw %d", p.Name, i)
			}
		}
	}
}
