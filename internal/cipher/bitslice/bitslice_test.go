package bitslice

import (
	"encoding/binary"
	"math/bits"
	"testing"

	"explframe/internal/stats"
)

// naiveTranspose is the obviously correct reference: bit j of out[i] is
// bit i of in[j].
func naiveTranspose(in *[64]uint64) [64]uint64 {
	var out [64]uint64
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			out[i] |= (in[j] >> uint(i) & 1) << uint(j)
		}
	}
	return out
}

func TestTranspose64MatchesNaive(t *testing.T) {
	rng := stats.NewRNG(0x7157a)
	for trial := 0; trial < 50; trial++ {
		var a [64]uint64
		for i := range a {
			a[i] = rng.Uint64()
		}
		want := naiveTranspose(&a)
		got := a
		Transpose64(&got)
		if got != want {
			t.Fatalf("trial %d: transpose mismatch", trial)
		}
		// Involution: transposing twice restores the input.
		Transpose64(&got)
		if got != a {
			t.Fatalf("trial %d: transpose is not an involution", trial)
		}
	}
}

func TestSbox4MatchesTableLookup(t *testing.T) {
	rng := stats.NewRNG(0x5b0c4)
	for trial := 0; trial < 100; trial++ {
		var table [16]byte
		for i := range table {
			table[i] = byte(rng.Intn(256)) // entries may carry junk above bit 3
		}
		circ := NewSbox4(&table)

		// One lane per possible input value plus 48 random lanes.
		var lanes [64]byte
		for b := 0; b < 16; b++ {
			lanes[b] = byte(b)
		}
		for b := 16; b < 64; b++ {
			lanes[b] = byte(rng.Intn(16))
		}
		var q [4]uint64
		for b, x := range lanes {
			for i := 0; i < 4; i++ {
				q[i] |= uint64(x>>uint(i)&1) << uint(b)
			}
		}
		circ.Apply(&q)
		for b, x := range lanes {
			var got byte
			for i := 0; i < 4; i++ {
				got |= byte(q[i]>>uint(b)&1) << uint(i)
			}
			if want := table[x] & 0xF; got != want {
				t.Fatalf("trial %d lane %d: S[%#x] = %#x, want %#x", trial, b, x, got, want)
			}
		}
	}
}

func TestDiffTable(t *testing.T) {
	// The 4-bit datapath of the 64-bit SPNs.
	canon := []byte{0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2}
	table := append([]byte(nil), canon...)
	if ps := DiffTable(nil, table, canon, 0xF); len(ps) != 0 {
		t.Fatalf("clean table produced %d patches", len(ps))
	}
	// A flip above the 4-bit datapath is invisible.
	table[3] ^= 0x10
	if ps := DiffTable(nil, table, canon, 0xF); len(ps) != 0 {
		t.Fatalf("datapath-invisible flip produced %d patches", len(ps))
	}
	// Two real faults.
	table[3] ^= 0x01
	table[9] ^= 0x0C
	ps := DiffTable(nil, table, canon, 0xF)
	if len(ps) != 2 || ps[0] != (Patch{In: 3, Delta: 0x01}) || ps[1] != (Patch{In: 9, Delta: 0x0C}) {
		t.Fatalf("4-bit patches = %+v", ps)
	}

	// The full 8-bit datapath of a 256-entry table such as AES's: every
	// bit is visible, up to the last entry.
	canon8 := make([]byte, 256)
	for i := range canon8 {
		canon8[i] = byte(i*7 + 0x63)
	}
	table8 := append([]byte(nil), canon8...)
	if ps := DiffTable(nil, table8, canon8, 0xFF); len(ps) != 0 {
		t.Fatalf("clean 8-bit table produced %d patches", len(ps))
	}
	table8[0x00] ^= 0x80
	table8[0xFF] ^= 0x11
	ps = DiffTable(nil, table8, canon8, 0xFF)
	if len(ps) != 2 || ps[0] != (Patch{In: 0x00, Delta: 0x80}) || ps[1] != (Patch{In: 0xFF, Delta: 0x11}) {
		t.Fatalf("8-bit patches = %+v", ps)
	}
}

// reg80 is the scalar reference for one lane of KeyReg80: bit j of the
// register in r[j].
type reg80 [80]byte

func (r *reg80) rotateLeft(n int) {
	var out reg80
	for j := range r {
		out[(j+n)%80] = r[j]
	}
	*r = out
}

func (r *reg80) sbox(table *[16]byte, j int) {
	var x byte
	for i := 0; i < 4; i++ {
		x |= r[j+i] << uint(i)
	}
	y := table[x] & 0xF
	for i := 0; i < 4; i++ {
		r[j+i] = y >> uint(i) & 1
	}
}

// Every lane of KeyReg80, loaded with a random guess list of random
// length, tracks a scalar 80-bit register through a random walk of
// constant XORs, S-box substitutions and rotations, and Top64 reads back
// its bits 16..79.
func TestKeyReg80MatchesScalarRegister(t *testing.T) {
	rng := stats.NewRNG(0x8e980)
	for trial := 0; trial < 20; trial++ {
		hi := rng.Uint64()
		guesses := make([]uint16, 1+rng.Intn(Lanes))
		for b := range guesses {
			guesses[b] = uint16(rng.Intn(1 << 16))
		}
		var k KeyReg80
		k.LoadGuesses(hi, guesses)
		var lanes [64]reg80
		for b := range lanes {
			var lo uint16 // lanes past the guesses hold guess 0
			if b < len(guesses) {
				lo = guesses[b]
			}
			for j := 0; j < 80; j++ {
				if j < 16 {
					lanes[b][j] = byte(lo >> uint(j) & 1)
				} else {
					lanes[b][j] = byte(hi >> uint(j-16) & 1)
				}
			}
		}
		var table [16]byte
		for i, v := range rng.Perm(16) {
			table[i] = byte(v)
		}
		circ := NewSbox4(&table)
		for step := 0; step < 40; step++ {
			switch rng.Intn(3) {
			case 0:
				j, v := rng.Intn(75), uint64(rng.Intn(32))
				k.XorConst(j, v)
				for b := range lanes {
					for i := 0; i < 5; i++ {
						lanes[b][j+i] ^= byte(v >> uint(i) & 1)
					}
				}
			case 1:
				j := rng.Intn(77)
				k.Sbox(&circ, j)
				for b := range lanes {
					lanes[b].sbox(&table, j)
				}
			case 2:
				n := rng.Intn(80)
				k.RotateLeft(n)
				for b := range lanes {
					lanes[b].rotateLeft(n)
				}
			}
			var top [64]uint64
			k.Top64(&top)
			for b := range lanes {
				for i := 0; i < 64; i++ {
					if got, want := byte(top[i]>>uint(b)&1), lanes[b][16+i]; got != want {
						t.Fatalf("trial %d step %d lane %d: register bit %d = %d, want %d", trial, step, b, 16+i, got, want)
					}
				}
			}
		}
	}
}

// MatchKeys flags exactly the lanes whose round keys encipher the
// plaintext to the ciphertext, as the block-sliced engine computes it for
// each lane's key on its own.
func TestMatchKeysMatchesPerLaneEncryption(t *testing.T) {
	present := [16]byte{0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2}
	e := NewSPN64(31, present, func(i int) int {
		if i == 63 {
			return 63
		}
		return i * 16 % 63
	}, Schedule80{Rotate: 61, Nibbles: []int{76}, Counter: 15})
	rng := stats.NewRNG(0x3a7c4)
	for trial := 0; trial < 10; trial++ {
		// Lane b's schedule is keys[b]; three lanes share the target's.
		keys := make([][]uint64, Lanes)
		for b := range keys {
			keys[b] = make([]uint64, e.Rounds+1)
			for r := range keys[b] {
				keys[b][r] = rng.Uint64()
			}
		}
		target := rng.Intn(Lanes)
		want := uint64(1) << uint(target)
		for _, b := range []int{rng.Intn(Lanes), rng.Intn(Lanes)} {
			copy(keys[b], keys[target])
			want |= 1 << uint(b)
		}
		rk := make([][64]uint64, e.Rounds+1)
		for b, ks := range keys {
			for r, key := range ks {
				for p := 0; p < 64; p++ {
					rk[r][p] |= (key >> uint(p) & 1) << uint(b)
				}
			}
		}
		src := [][]byte{make([]byte, 8)}
		rng.Bytes(src[0])
		dst := [][]byte{make([]byte, 8)}
		e.EncryptBatch(keys[target], present[:], dst, src)
		if got := e.MatchKeys(rk, binary.BigEndian.Uint64(src[0]), binary.BigEndian.Uint64(dst[0])); got != want {
			t.Fatalf("trial %d: match mask %016x, want %016x", trial, got, want)
		}
		// Each lane's own ciphertext selects it (and its twins).
		for b := range keys {
			e.EncryptBatch(keys[b], present[:], dst, src)
			if got := e.MatchKeys(rk, binary.BigEndian.Uint64(src[0]), binary.BigEndian.Uint64(dst[0])); got>>uint(b)&1 == 0 {
				t.Fatalf("trial %d: lane %d does not match its own ciphertext (mask %016x)", trial, b, got)
			}
		}
	}
}

// FuzzSchedule80 checks every form the engine derives from one
// Schedule80 declaration, for random declarations, registers and S-box
// permutations: the scalar update followed by its inverse is the identity
// over 31 rounds, the scalar inverse matches KeyReg80's inverse lane
// for lane on all 80 register bits after every round, and the hidden-bit
// map holds by brute force (checkHiddenBits) or is rightly refused.  Nibble and counter
// positions range over the whole register, so they straddle bits 63/64,
// which neither built-in cipher exercises; two nibbles may overlap.
// Run with: go test -fuzz=FuzzSchedule80 ./internal/cipher/bitslice
func FuzzSchedule80(f *testing.F) {
	f.Add(uint8(61), uint8(1), uint8(76), uint8(0), uint8(15), uint64(0x0123456789abcdef), uint16(0x4567), uint64(1)) // PRESENT
	f.Add(uint8(23), uint8(2), uint8(76), uint8(72), uint8(0), uint64(0xfedcba9876543210), uint16(0x89ab), uint64(2)) // LILLIPUT
	f.Add(uint8(17), uint8(2), uint8(61), uint8(63), uint8(62), ^uint64(0), uint16(0xFFFF), uint64(3))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(60), uint64(0), uint16(0), uint64(4))
	f.Fuzz(func(t *testing.T, rotate, nNibbles, nib0, nib1, counter uint8, lo uint64, hi uint16, seed uint64) {
		s := Schedule80{Rotate: int(rotate) % 80, Counter: int(counter) % 76}
		for _, j := range []uint8{nib0, nib1}[:nNibbles%3] {
			s.Nibbles = append(s.Nibbles, int(j)%77)
		}
		s.check()
		var sb, isb [16]byte
		for i, v := range stats.NewRNG(seed).Perm(16) {
			sb[i], isb[v] = byte(v), byte(i)
		}
		const rounds = maxRounds

		k := key80{lo: lo, hi: uint64(hi)}
		w := k
		for r := 1; r <= rounds; r++ {
			w = s.update(w, &sb, r)
		}
		for r := rounds; r >= 1; r-- {
			w = s.invUpdate(w, &isb, r)
		}
		if w != k {
			t.Fatalf("%+v: update then inverse maps %#x to %#x", s, k, w)
		}
		checkHiddenBits(t, &s, &sb, stats.NewRNG(seed^lo))

		var reg KeyReg80
		var guesses [Lanes]uint16
		for b := range guesses {
			guesses[b] = uint16(lo)&^63 | uint16(b)
		}
		reg.LoadGuesses(k.bits(16), guesses[:])
		inv := NewSbox4(&isb)
		var lanes [Lanes]key80
		for b := range lanes {
			lanes[b] = key80{lo: lo&^63 | uint64(b), hi: uint64(hi)}
		}
		for r := rounds; r >= 1; r-- {
			s.invUpdatePlanes(&reg, &inv, r)
			for b := range lanes {
				lanes[b] = s.invUpdate(lanes[b], &isb, r)
			}
			for j := 0; j < 80; j++ {
				p := *reg.plane(j)
				for b, l := range lanes {
					if got, want := p>>uint(b)&1, l.bits(j)&1; got != want {
						t.Fatalf("%+v round %d lane %d: register bit %d = %d planes, %d scalar", s, r, b, j, got, want)
					}
				}
			}
		}
	})
}

// checkHiddenBits checks the map hiddenBits derives.  A declaration
// whose S-boxed nibbles touch the hidden register bits (0..15) must yield
// no map, and an engine on it must leave every guess to the search.
// Otherwise each hidden bit g, flipped before one scalar inverse update on
// random registers, flips exactly one register bit after it: at[g] when
// the map holds; when it is refused, some flip must land below the round
// key (bits 0..15).
func checkHiddenBits(t *testing.T, s *Schedule80, sb *[16]byte, rng *stats.RNG) {
	t.Helper()
	at, ok := s.hiddenBits()
	for _, j := range s.Nibbles {
		if j < 16 {
			if ok {
				t.Fatalf("%+v: nibble at bit %d S-boxes hidden bits, yet a map was derived", s, j)
			}
			e := NewSPN64(maxRounds, *sb, func(i int) int { return i }, *s)
			if gs, left := e.narrow(rng.Uint64(), RuledOut{0x00FF, 0x0F0F, 0x3333}); !left || gs != (guesses{free: 0xFFFF}) {
				t.Fatalf("%+v: no map, yet the search is narrowed to %+v", s, gs)
			}
			return
		}
	}
	var isb [16]byte
	for i, v := range sb {
		isb[v] = byte(i)
	}
	below := false
	for g := 0; g < 16; g++ {
		for trial := 0; trial < 4; trial++ {
			k := key80{lo: rng.Uint64(), hi: rng.Uint64() & 0xFFFF}
			flipped := k
			flipped.xor(g, 1)
			a, b := s.invUpdate(k, &isb, 7), s.invUpdate(flipped, &isb, 7)
			d := key80{lo: a.lo ^ b.lo, hi: a.hi ^ b.hi}
			if bits.OnesCount64(d.lo)+bits.OnesCount64(d.hi) != 1 {
				t.Fatalf("%+v: hidden bit %d spreads to %#x without passing an S-box", s, g, d)
			}
			below = below || d.lo&0xFFFF != 0
			var want key80
			want.xor(at[g], 1)
			if ok && d != want {
				t.Fatalf("%+v: hidden bit %d flips %#x, map says register bit %d", s, g, d, at[g])
			}
		}
	}
	if !ok && !below {
		t.Fatalf("%+v: hidden-bit map refused, yet every hidden bit lands in the round key", s)
	}
}

// The hidden-bit map of both 80-bit ciphers lands where their schedules
// put it: PRESENT's 16 hidden bits on bits 3..18 of K_{R-1}, one per
// nibble of InvPLayer(K_{R-1}); LILLIPUT's on bits 41..56, two in nibbles
// 3 and 4 and none in nibbles 0 and 11.  The declarations are copies of
// the cipher packages'.
func TestHiddenBitMap(t *testing.T) {
	presentBox := [16]byte{0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2}
	lilliputBox := [16]byte{0x4, 0x8, 0x7, 0x1, 0x9, 0x3, 0x2, 0xE, 0xD, 0xC, 0x6, 0xF, 0x0, 0xB, 0x5, 0xA}
	for _, tc := range []struct {
		name    string
		e       *SPN64
		rkMask  uint64 // bits of K_{R-1} carrying hidden bits
		invMask uint64 // the same bits in InvPLayer(K_{R-1})
	}{
		{"present", NewSPN64(31, presentBox, func(i int) int {
			if i == 63 {
				return 63
			}
			return i * 16 % 63
		}, Schedule80{Rotate: 61, Nibbles: []int{76}, Counter: 15}), 0x7FFF8, 0x1111111111111222},
		{"lilliput", NewSPN64(30, lilliputBox, func(i int) int { return 13 * i & 63 },
			Schedule80{Rotate: 23, Nibbles: []int{76, 72}, Counter: 0}), 0x01FFFE0000000000, 0x84210842118c6210},
	} {
		if !tc.e.hiddenOK {
			t.Fatalf("%s: no hidden-bit map", tc.name)
		}
		checkHiddenBits(t, &tc.e.sched, &tc.e.Canon, stats.NewRNG(0x41dd))
		at, _ := tc.e.sched.hiddenBits()
		var rk, inv uint64
		for g, b := range at {
			rk |= 1 << uint(b-16)
			inv |= 1 << tc.e.hidden[g]
			if tc.e.hidden[g] != tc.e.invPerm[b-16] {
				t.Fatalf("%s: hidden bit %d at InvPLayer bit %d, want %d", tc.name, g, tc.e.hidden[g], tc.e.invPerm[b-16])
			}
		}
		if rk != tc.rkMask || inv != tc.invMask {
			t.Fatalf("%s: hidden bits at K_{R-1} %#016x / InvPLayer %#016x, want %#016x / %#016x", tc.name, rk, inv, tc.rkMask, tc.invMask)
		}
	}
}
