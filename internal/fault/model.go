// Package fault makes transient fault models first-class values, the way
// internal/machine did for machines and internal/scenario did for
// scenarios.  A Model declares what a fault-injection campaign assumes the
// attacker can do — which round the fault lands in, how much of the block
// it disturbs (a bit, a nibble, a byte, or several random bytes) and
// whether the position is known — as plain serializable data with
// functional options (New, With), joined-field validation (Validate),
// canonical naming and hashing (Name, Hash) and lossless JSON
// (EncodeJSON), decoded strictly inside scenario specs.
//
// The catalogue in Presets is the precise-to-random ladder of "From
// Precise to Random: A Systematic DFA of LILLIPUT" (PAPERS.md): the same
// differential analysis run under progressively weaker fault assumptions,
// measuring how much key space survives each step down.  Models say
// nothing about any one cipher: Draw renders a model into a concrete
// Injection (round + XOR mask over the byte-form block) for whatever block
// size the victim has, and registry.Instance.EncryptWithFault applies it.
package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"explframe/internal/stats"
)

// The fault-model kinds, ordered from the strongest attacker assumption to
// the weakest.  "Precise" kinds pin the fault position per pair (the
// attacker knows where the fault landed, even when the position itself is
// drawn at random); RandomBytes pins nothing.
const (
	// PreciseBit flips exactly one known bit of the round input.
	PreciseBit = "precise-bit"
	// Nibble disturbs one known 4-bit nibble with an unknown nonzero value.
	Nibble = "nibble"
	// PreciseByte disturbs one known byte with an unknown nonzero value.
	PreciseByte = "precise-byte"
	// RandomBytes disturbs Width unknown distinct bytes with unknown
	// nonzero values — the weakest, Rowhammer-shaped end of the ladder.
	RandomBytes = "random-bytes"
)

// Anywhere is the Position value meaning "drawn uniformly per pair":
// for the precise kinds the drawn position is still reported to the
// analyzer (fault templating tells the attacker where it landed), for
// RandomBytes it stays hidden.
const Anywhere = -1

// Model declares one transient fault model.  The zero value is not a valid
// model; build Models with New/With so defaults stay in one place.
//
// Positions index the byte-form block big-endian: bit p lives in byte p/8
// at mask 0x80>>(p%8), nibble i is the high half of byte i/2 when i is
// even, and bytes are plain indices.  Round 0 means "the analyzer's
// canonical round" — the deepest round its differential equations reach.
type Model struct {
	// Kind is PreciseBit, Nibble, PreciseByte or RandomBytes.
	Kind string `json:"kind"`
	// Round is the 1-based round the fault lands at the entry of; 0 defers
	// to the analyzer's canonical round for the target cipher.
	Round int `json:"round,omitempty"`
	// Position fixes the fault position in Kind units (bit, nibble or byte
	// index); Anywhere draws it uniformly per pair.  RandomBytes requires
	// Anywhere.
	Position int `json:"position"`
	// Width is the number of distinct faulted bytes; only RandomBytes
	// takes one (>= 1).
	Width int `json:"width,omitempty"`
}

// Option mutates a Model under construction.
type Option func(*Model)

// New builds a Model of the given kind with the position drawn per pair
// (Anywhere) at the analyzer's canonical round, and applies opts.
// RandomBytes defaults to one faulted byte.
func New(kind string, opts ...Option) Model {
	m := Model{Kind: kind, Position: Anywhere}
	if kind == RandomBytes {
		m.Width = 1
	}
	return m.With(opts...)
}

// With returns a copy of m with opts applied.
func (m Model) With(opts ...Option) Model {
	for _, opt := range opts {
		opt(&m)
	}
	return m
}

// WithPosition fixes the fault position (in the kind's units).
func WithPosition(p int) Option { return func(m *Model) { m.Position = p } }

// WithWidth sets the RandomBytes faulted-byte count.
func WithWidth(w int) Option { return func(m *Model) { m.Width = w } }

// kinds lists the accepted Kind strings.
var kinds = map[string]bool{
	PreciseBit: true, Nibble: true, PreciseByte: true, RandomBytes: true,
}

// Validate checks every field and returns all violations joined into one
// error (errors.Join), so a fault spec with three mistakes reports three
// mistakes.  Position bounds depend on the victim's block size and are
// checked by Draw.
func (m Model) Validate() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	if !kinds[m.Kind] {
		fail("kind: unknown %q (want %s)", m.Kind, strings.Join(KindNames(), ", "))
	}
	if m.Round < 0 {
		fail("round: %d, want >= 0 (0 = analyzer's canonical round)", m.Round)
	}
	if m.Position < Anywhere {
		fail("position: %d, want >= -1 (-1 = drawn per pair)", m.Position)
	}
	switch m.Kind {
	case RandomBytes:
		if m.Position != Anywhere {
			fail("position: %d fixed on kind random-bytes (random positions are the model; want -1)", m.Position)
		}
		if m.Width < 1 {
			fail("width: %d, want >= 1 faulted bytes", m.Width)
		}
	default:
		if m.Width != 0 {
			fail("width: %d set on kind %q (only random-bytes takes a width)", m.Width, m.Kind)
		}
	}
	return errors.Join(errs...)
}

// KindNames returns the accepted kinds in ladder order.
func KindNames() []string {
	return []string{PreciseBit, Nibble, PreciseByte, RandomBytes}
}

// Name returns the canonical model name: kind, position (or "any"), the
// RandomBytes width, and any pinned round.  Two models are the same fault
// assumption iff their Names are equal.
func (m Model) Name() string {
	var b strings.Builder
	b.WriteString(m.Kind)
	if m.Position >= 0 {
		fmt.Fprintf(&b, "@%d", m.Position)
	} else {
		b.WriteString("@any")
	}
	if m.Kind == RandomBytes {
		fmt.Fprintf(&b, "x%d", m.Width)
	}
	if m.Round > 0 {
		fmt.Fprintf(&b, "+r%d", m.Round)
	}
	return b.String()
}

// Hash returns a 64-bit FNV-1a digest of the canonical Name — stable
// across processes, usable for dedup and per-model seed derivation.
func (m Model) Hash() uint64 { return stats.FNV64(m.Name()) }

// Injection is one concrete rendering of a Model: the XOR mask
// EncryptWithFault applies to the byte-form block at the entry of the
// model's round.
type Injection struct {
	// Mask is the block-sized difference XORed into the round input.
	Mask []byte
	// Position is the drawn position in the model's units when the kind
	// pins it (the analyzer is told where the fault landed); Anywhere for
	// RandomBytes.
	Position int
}

// Draw renders the model into one Injection for a blockBytes-sized victim,
// drawing any unpinned choices (position, fault value) from rng.  The draw
// order is part of the results-book contract: position first (when
// Anywhere), then one value draw per faulted unit.
func (m Model) Draw(rng *stats.RNG, blockBytes int) (Injection, error) {
	if err := m.Validate(); err != nil {
		return Injection{}, err
	}
	inj := Injection{Mask: make([]byte, blockBytes), Position: m.Position}
	switch m.Kind {
	case PreciseBit:
		if inj.Position == Anywhere {
			inj.Position = rng.Intn(8 * blockBytes)
		} else if inj.Position >= 8*blockBytes {
			return Injection{}, fmt.Errorf("fault: bit position %d outside a %d-byte block", inj.Position, blockBytes)
		}
		inj.Mask[inj.Position/8] = 0x80 >> uint(inj.Position%8)
	case Nibble:
		if inj.Position == Anywhere {
			inj.Position = rng.Intn(2 * blockBytes)
		} else if inj.Position >= 2*blockBytes {
			return Injection{}, fmt.Errorf("fault: nibble position %d outside a %d-byte block", inj.Position, blockBytes)
		}
		d := byte(rng.Intn(15) + 1)
		if inj.Position%2 == 0 {
			d <<= 4
		}
		inj.Mask[inj.Position/2] = d
	case PreciseByte:
		if inj.Position == Anywhere {
			inj.Position = rng.Intn(blockBytes)
		} else if inj.Position >= blockBytes {
			return Injection{}, fmt.Errorf("fault: byte position %d outside a %d-byte block", inj.Position, blockBytes)
		}
		inj.Mask[inj.Position] = byte(rng.Intn(255) + 1)
	case RandomBytes:
		if m.Width > blockBytes {
			return Injection{}, fmt.Errorf("fault: width %d exceeds the %d-byte block", m.Width, blockBytes)
		}
		for k := 0; k < m.Width; k++ {
			p := rng.Intn(blockBytes)
			for inj.Mask[p] != 0 {
				p = rng.Intn(blockBytes)
			}
			inj.Mask[p] = byte(rng.Intn(255) + 1)
		}
	}
	return inj, nil
}

// Preset is a named, documented fault model the CLI can list and describe
// — one rung of the precise-to-random ladder.
type Preset struct {
	// Name is the CLI handle.
	Name string
	// Description is the one-line catalogue entry `explframe list` prints.
	Description string
	// Model is the fault model itself.
	Model Model
}

// Presets returns the built-in ladder, strongest assumption first.  Every
// entry validates; the fault package tests pin that.
func Presets() []Preset {
	return []Preset{
		{
			Name:        "precise-bit",
			Description: "one known bit flips at the target round (laser-class control)",
			Model:       New(PreciseBit),
		},
		{
			Name:        "nibble",
			Description: "one known nibble takes an unknown nonzero difference",
			Model:       New(Nibble),
		},
		{
			Name:        "precise-byte",
			Description: "one known byte takes an unknown nonzero difference (Piret-Quisquater)",
			Model:       New(PreciseByte),
		},
		{
			Name:        "random-byte",
			Description: "one unknown byte takes an unknown difference (glitch-class control)",
			Model:       New(RandomBytes),
		},
		{
			Name:        "random-2byte",
			Description: "two unknown bytes take unknown differences (weakest rung)",
			Model:       New(RandomBytes, WithWidth(2)),
		},
	}
}

// LookupPreset resolves a preset by name.
func LookupPreset(name string) (Preset, bool) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, true
		}
	}
	return Preset{}, false
}

// EncodeJSON renders the model as indented JSON, round-tripping losslessly
// through a strict decode.
func (m Model) EncodeJSON() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
