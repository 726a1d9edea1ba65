// Package bitslice holds the shared machinery of the cipher cores: the
// 64x64 bit-matrix transpose that moves blocks between lane and bit-plane
// form, an ANF-synthesised 4-bit S-box circuit, and SPN64, the one
// implementation of the repo's 64-bit substitution-permutation ciphers
// (PRESENT-80 and the LILLIPUT-style SPN).  SPN64 runs their rounds on the
// scalar path, 64 blocks at a time bitsliced, and 64 keys at a time
// key-sliced; the cipher packages contribute only their S-box,
// permutation and Schedule80 declaration.  The AES core reuses the
// transpose and the faulted-entry patch (DiffTable, ApplyPatches) but
// carries its own 128-plane circuit in internal/cipher/aes.
//
// Representation: plane p is a uint64 holding bit p of up to 64 independent
// blocks, with lane b (block b) at bit b of every plane.  Encrypting a
// batch then costs one pass of the cipher's boolean circuit over the
// planes, amortising each gate across all lanes.
//
// Faulted tables survive bitslicing by patching the canonical S-box
// circuit: for each table entry e whose stored value differs from the
// canonical S[e], an equality mask over the *input* planes selects exactly
// the lanes whose nibble/byte equals e, and (table[e] ^ S[e]) & mask is
// XORed into the output planes.  A fault-free table produces no patches.
//
// Key-sliced, the lanes carry 64 keys instead of 64 blocks: KeyReg80 holds
// 64 guesses of an 80-bit key register as planes, the engine walks their
// Schedule80 back together, and SPN64.MatchKeys encrypts one known
// plaintext under all of them at once.  SPN64.RecoverMaster80 strings these
// into the search that completes a recovered last round key to the master
// key of either 80-bit cipher.
package bitslice

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Lanes is the batch width of the bitsliced cores: one uint64 bit-plane
// carries one bit of 64 independent blocks.
const Lanes = 64

// Transpose64 transposes the 64x64 bit matrix in place, with bit 0 as
// column 0: after the call, bit j of a[i] is the old bit i of a[j].
// Loading block b's 64-bit state into a[b] and transposing therefore
// leaves plane p in a[p] with lane b at bit b — and the transform is an
// involution, so the same call converts planes back to blocks.
func Transpose64(a *[64]uint64) {
	m := uint64(0xFFFFFFFF00000000)
	for j := uint(32); j != 0; {
		for k := 0; k < 64; k = (k + int(j) + 1) &^ int(j) {
			t := (a[k] ^ (a[k|int(j)] << j)) & m
			a[k] ^= t
			a[k|int(j)] ^= t >> j
		}
		j >>= 1
		m ^= m >> j
	}
}

// Sbox4 is a bitsliced 4-bit S-box circuit synthesised from its lookup
// table via the Moebius transform: each output bit is the XOR of AND
// monomials over the four input planes, with the monomial set read off the
// algebraic normal form.  Synthesising from the table at construction time
// makes the circuit correct for any 4-bit S-box by derivation, not by
// transcription.
type Sbox4 struct {
	// terms[o][:n[o]] lists the monomials u (the AND of the input planes
	// selected by u's bits) whose XOR is output bit o.
	terms [4][16]uint8
	n     [4]uint8
}

// NewSbox4 derives the circuit for the given table; entries are masked to
// their low 4 bits, matching the scalar nibble ciphers' datapath.
func NewSbox4(table *[16]byte) Sbox4 {
	var s Sbox4
	for o := 0; o < 4; o++ {
		var f uint16
		for x := 0; x < 16; x++ {
			f |= uint16((table[x]>>uint(o))&1) << uint(x)
		}
		// Moebius transform: bit u of f becomes the coefficient of
		// monomial u.
		f ^= (f & 0x5555) << 1
		f ^= (f & 0x3333) << 2
		f ^= (f & 0x0F0F) << 4
		f ^= (f & 0x00FF) << 8
		for u := 0; u < 16; u++ {
			if f>>uint(u)&1 != 0 {
				s.terms[o][s.n[o]] = uint8(u)
				s.n[o]++
			}
		}
	}
	return s
}

// Apply substitutes the four input planes through the circuit in place:
// q[i] holds the plane of input bit i on entry and of output bit i on
// return.
func (s *Sbox4) Apply(q *[4]uint64) {
	// All 16 monomial planes, built with 11 ANDs by extending each subset
	// one variable at a time.
	var m [16]uint64
	m[0] = ^uint64(0)
	m[1] = q[0]
	m[2] = q[1]
	m[3] = q[0] & q[1]
	m[4] = q[2]
	m[5] = q[0] & q[2]
	m[6] = q[1] & q[2]
	m[7] = m[3] & q[2]
	m[8] = q[3]
	m[9] = q[0] & q[3]
	m[10] = q[1] & q[3]
	m[11] = m[3] & q[3]
	m[12] = q[2] & q[3]
	m[13] = m[5] & q[3]
	m[14] = m[6] & q[3]
	m[15] = m[7] & q[3]
	var out [4]uint64
	for o := range out {
		var v uint64
		for _, u := range s.terms[o][:s.n[o]] {
			v ^= m[u&15]
		}
		out[o] = v
	}
	*q = out
}

// Patch is one faulted table entry: lanes whose S-box input equals In
// get Delta XORed into their substituted output.
type Patch struct {
	// In is the faulted table index.
	In byte
	// Delta is (table[In] ^ canonical[In]) masked to the datapath.
	Delta byte
}

// DiffTable appends to ps the entries where table deviates from the
// canonical S-box canon on the datapath mask, and returns the extended
// slice; a batch core passes a stack buffer as long as the table, so a
// faulty table costs it no allocation.  Corruption confined to stored bits
// outside mask yields no patch, exactly as it is invisible to a scalar
// path that masks its lookups the same way.
func DiffTable(ps []Patch, table, canon []byte, mask byte) []Patch {
	for e := range canon {
		if d := (table[e] ^ canon[e]) & mask; d != 0 {
			ps = append(ps, Patch{In: byte(e), Delta: d})
		}
	}
	return ps
}

// ApplyPatches replays the faulted entries ps on one S-box position: in
// holds its input planes (bit i of the input in in[i]) and out the
// canonical circuit's output planes, which it corrects in place.
func ApplyPatches(in, out []uint64, ps []Patch) {
	for _, p := range ps {
		eq := ^uint64(0)
		for i, q := range in {
			// XNOR with the broadcast of bit i of the faulted index:
			// keeps only lanes whose input equals p.In.
			eq &= q ^ ^(-(uint64(p.In) >> uint(i) & 1))
		}
		for o := range out {
			if p.Delta>>uint(o)&1 != 0 {
				out[o] ^= eq
			}
		}
	}
}

// SPN64 is the one implementation of the 64-bit SPNs of the
// PRESENT/LILLIPUT shape: Rounds iterations of AddRoundKey, a 16-nibble
// S-box layer and a bit permutation, closed by a whitening key.  It holds
// the scalar rounds, the 64-lane bitsliced rounds, the key schedule and
// the key-sliced master-key search; a cipher package supplies only its
// S-box, its permutation and its Schedule80 declaration.  The engine is
// built once per cipher (the circuits and permutation are
// key-independent); every call takes the round keys, rk[r-1] being round
// r's key and rk[Rounds] the whitening key, and the possibly corrupted
// table.
//
// Blocks are uint64s with bit 0 least significant; their byte form is
// big-endian.
type SPN64 struct {
	// Rounds is the number of substitution-permutation rounds; Rounds+1
	// round keys are consumed.
	Rounds int
	// Perm is the bit permutation: output bit Perm[i] takes input bit i.
	Perm [64]byte
	// Canon is the canonical S-box, entries masked to 4 bits.
	Canon [16]byte
	// Circuit is the bitsliced canonical S-box.
	Circuit Sbox4

	sched      Schedule80 // the 80-bit key schedule
	invPerm    [64]byte   // input bit invPerm[i] takes output bit i
	invCanon   [16]byte   // the canonical inverse S-box
	invCircuit Sbox4      // the bitsliced inverse S-box
}

// maxRounds bounds Rounds so the key-sliced search keeps its round-key
// planes in a fixed-size stack array.
const maxRounds = 31

// NewSPN64 builds the engine for a cipher with the given round count,
// canonical S-box, bit permutation (bit i moves to perm(i)) and key
// schedule.
func NewSPN64(rounds int, sbox [16]byte, perm func(int) int, sched Schedule80) *SPN64 {
	if rounds < 1 || rounds > maxRounds {
		panic("bitslice: SPN64 round count out of range")
	}
	sched.check()
	e := &SPN64{Rounds: rounds, sched: sched}
	for i := range sbox {
		e.Canon[i] = sbox[i] & 0xF
		e.invCanon[e.Canon[i]] = byte(i)
	}
	e.Circuit = NewSbox4(&e.Canon)
	e.invCircuit = NewSbox4(&e.invCanon)
	for i := 0; i < 64; i++ {
		e.Perm[i] = byte(perm(i))
		e.invPerm[e.Perm[i]] = byte(i)
	}
	return e
}

// PLayer applies the bit permutation: bit i of x moves to bit Perm[i].
func (e *SPN64) PLayer(x uint64) uint64 { return permute(x, &e.Perm) }

// InvPLayer inverts PLayer.
func (e *SPN64) InvPLayer(x uint64) uint64 { return permute(x, &e.invPerm) }

// permute moves bit i of x to bit to[i].  The &63 is a no-op on a valid
// permutation; it spares the compiler's check for shifts of 64 and up,
// which would double the cost of the loop.
func permute(x uint64, to *[64]byte) uint64 {
	var out uint64
	for i, p := range to {
		out |= (x >> uint(i) & 1) << (p & 63)
	}
	return out
}

// substitute passes all 16 nibbles of x through sb.  Only the low
// nibble of an entry reaches the datapath, as in the hardware it models,
// so corruption confined to the stored bits above it is harmless.
func substitute(x uint64, sb *[16]byte) uint64 {
	var out uint64
	for i := 0; i < 64; i += 4 {
		out |= uint64(sb[x>>uint(i)&0xF]&0xF) << uint(i)
	}
	return out
}

// Encrypt enciphers one block with the round keys and table sb.
func (e *SPN64) Encrypt(rk []uint64, sb *[16]byte, block uint64) uint64 {
	return e.encryptScalar(rk, sb, block, 0, 0)
}

// EncryptWithFault enciphers like Encrypt but XORs delta into the state
// at the entry of the 1-based round, before that round's AddRoundKey: the
// transient fault model differential fault analysis assumes.
func (e *SPN64) EncryptWithFault(rk []uint64, sb *[16]byte, block uint64, round int, delta uint64) uint64 {
	e.checkRound(round)
	return e.encryptScalar(rk, sb, block, round, delta)
}

// encryptScalar is the scalar round loop; faultRound 0 means no transient
// fault.
func (e *SPN64) encryptScalar(rk []uint64, sb *[16]byte, st uint64, faultRound int, delta uint64) uint64 {
	for r := 1; r <= e.Rounds; r++ {
		if r == faultRound {
			st ^= delta
		}
		st = e.PLayer(substitute(st^rk[r-1], sb))
	}
	return st ^ rk[e.Rounds]
}

// Decrypt deciphers one block with the round keys and the canonical
// inverse S-box.
func (e *SPN64) Decrypt(rk []uint64, block uint64) uint64 {
	st := block ^ rk[e.Rounds]
	for r := e.Rounds; r >= 1; r-- {
		st = substitute(e.InvPLayer(st), &e.invCanon) ^ rk[r-1]
	}
	return st
}

func (e *SPN64) checkRound(round int) {
	if round < 1 || round > e.Rounds {
		panic("bitslice: fault round out of range")
	}
}

// EncryptBatch enciphers len(src) <= Lanes independent blocks (8 bytes
// each) with the given round keys and table, writing ciphertext i to
// dst[i].  It is bit-for-bit equivalent to Encrypt on every lane, faulted
// tables included.
func (e *SPN64) EncryptBatch(rk []uint64, table []byte, dst, src [][]byte) {
	e.encrypt(rk, table, dst, src, 0, nil)
}

// EncryptWithFaultBatch enciphers like EncryptBatch but XORs masks[i] (an
// 8-byte transient-fault delta) into lane i's state at the entry of the
// 1-based round, matching EncryptWithFault lane for lane.
func (e *SPN64) EncryptWithFaultBatch(rk []uint64, table []byte, dst, src [][]byte, round int, masks [][]byte) {
	e.checkRound(round)
	e.encrypt(rk, table, dst, src, round, masks)
}

// encrypt is the common batch body; faultRound 0 means no transient fault.
func (e *SPN64) encrypt(rk []uint64, table []byte, dst, src [][]byte, faultRound int, masks [][]byte) {
	n := len(src)
	if n > Lanes {
		panic("bitslice: batch wider than 64 lanes")
	}
	if len(dst) != n {
		panic("bitslice: batch dst/src length mismatch")
	}
	var st [64]uint64
	for b := 0; b < n; b++ {
		st[b] = binary.BigEndian.Uint64(src[b])
	}
	Transpose64(&st)

	var fd [64]uint64
	if faultRound != 0 {
		if len(masks) != n {
			panic("bitslice: batch masks length mismatch")
		}
		for b := 0; b < n; b++ {
			fd[b] = binary.BigEndian.Uint64(masks[b])
		}
		Transpose64(&fd)
	}

	var buf [16]Patch
	patches := DiffTable(buf[:0], table, e.Canon[:], 0xF)
	for r := 1; r <= e.Rounds; r++ {
		if r == faultRound {
			for p := 0; p < 64; p++ {
				st[p] ^= fd[p]
			}
		}
		key := rk[r-1]
		for p := 0; p < 64; p++ {
			st[p] ^= -(key >> uint(p) & 1)
		}
		e.substitutePermute(&st, patches)
	}
	key := rk[e.Rounds]
	for p := 0; p < 64; p++ {
		st[p] ^= -(key >> uint(p) & 1)
	}

	Transpose64(&st)
	for b := 0; b < n; b++ {
		binary.BigEndian.PutUint64(dst[b], st[b])
	}
}

// MatchKeys enciphers one plaintext under 64 keys at once — the
// key-sliced dual of EncryptBatch, where the lanes carry keys instead of
// blocks — with the canonical S-box, and reports which lanes reproduce the
// ciphertext.  rk[r-1][p] is the plane of bit p of round key r (rk[Rounds]
// the whitening key), lane b holding key b; plaintext and ciphertext are
// the same in every lane.  Bit b of the result is set when lane b's
// encryption of plaintext equals ciphertext.
func (e *SPN64) MatchKeys(rk [][64]uint64, plaintext, ciphertext uint64) uint64 {
	if len(rk) != e.Rounds+1 {
		panic("bitslice: MatchKeys needs Rounds+1 round-key plane sets")
	}
	var st [64]uint64
	for p := range st {
		st[p] = -(plaintext >> uint(p) & 1)
	}
	for r := 0; r < e.Rounds; r++ {
		for p := range st {
			st[p] ^= rk[r][p]
		}
		e.substitutePermute(&st, nil)
	}
	match := ^uint64(0)
	for p := range st {
		match &^= st[p] ^ rk[e.Rounds][p] ^ -(ciphertext >> uint(p) & 1)
	}
	return match
}

// RecoverMaster80 completes a recovered last round key to the 80-bit
// master key, given one known plaintext/ciphertext pair to resolve the 16
// register bits the last round key does not expose.  It searches those
// bits key-sliced, in ascending order on the calling goroutine: each of
// the 1024 passes loads 64 consecutive guesses into the lanes of a
// KeyReg80, walks the schedule back, and encrypts the plaintext under all
// 64 resulting schedules at once.  A lane that reproduces the ciphertext
// is rebuilt and re-checked on the scalar path, so the result is the
// lowest verified guess.  The search itself allocates nothing.
func (e *SPN64) RecoverMaster80(last, plaintext, ciphertext uint64) ([]byte, bool) {
	var planes [maxRounds + 1][64]uint64
	rk := planes[:e.Rounds+1]
	var reg KeyReg80
	for base := 0; base < 1<<16; base += Lanes {
		reg.LoadLanes(last, uint16(base))
		reg.Top64(&rk[e.Rounds])
		// The register before schedule update r holds round key r.
		for r := e.Rounds; r >= 1; r-- {
			e.sched.invUpdatePlanes(&reg, &e.invCircuit, r)
			reg.Top64(&rk[r-1])
		}
		for m := e.MatchKeys(rk, plaintext, ciphertext); m != 0; m &= m - 1 {
			guess := uint64(base + bits.TrailingZeros64(m))
			if key, ok := e.complete(last, guess, plaintext, ciphertext); ok {
				return key, true
			}
		}
	}
	return nil, false
}

// complete inverts the schedule from the last round key and one guess of
// the 16 hidden register bits on the scalar path, and returns the master
// key if its expansion enciphers plaintext to ciphertext.  The round keys
// stay on the stack, so a miss allocates nothing.
func (e *SPN64) complete(last, guess, plaintext, ciphertext uint64) ([]byte, bool) {
	k := key80{lo: last<<16 | guess, hi: last >> 48}
	for r := e.Rounds; r >= 1; r-- {
		k = e.sched.invUpdate(k, &e.invCanon, r)
	}
	var buf [maxRounds + 1]uint64
	rk := buf[:e.Rounds+1]
	e.expand(rk, k)
	if e.Encrypt(rk, &e.Canon, plaintext) != ciphertext {
		return nil, false
	}
	key := make([]byte, keyBytes80)
	binary.BigEndian.PutUint16(key, uint16(k.hi))
	binary.BigEndian.PutUint64(key[2:], k.lo)
	return key, true
}

// substitutePermute runs one round's S-box layer and bit permutation.
func (e *SPN64) substitutePermute(st *[64]uint64, patches []Patch) {
	e.sboxLayer(st, patches)
	var out [64]uint64
	for p := 0; p < 64; p++ {
		out[e.Perm[p]] = st[p]
	}
	*st = out
}

// sboxLayer substitutes all 16 nibble groups through the patched circuit.
func (e *SPN64) sboxLayer(st *[64]uint64, patches []Patch) {
	for nib := 0; nib < 16; nib++ {
		q := (*[4]uint64)(st[4*nib : 4*nib+4])
		in := *q
		e.Circuit.Apply(q)
		ApplyPatches(in[:], q[:], patches)
	}
}

// keyBytes80 is the length of an 80-bit master key in bytes.
const keyBytes80 = 10

// Schedule80 declares an 80-bit key schedule of the shape both 80-bit
// ciphers share.  The register holds bits 0..79 (bit 0 least
// significant); round key r is its bits 16..79 before update r, and
// update r rotates the register left by Rotate, passes the nibbles at
// register bits Nibbles (in order) through the cipher's S-box, and XORs r
// in at bit Counter.  SPN64 derives every form of the schedule from this
// one value: the scalar forward schedule (Expand), its scalar inverse
// with guess completion, and its key-sliced inverse on a KeyReg80.
type Schedule80 struct {
	// Rotate is the left rotation, 0 <= Rotate < 80.
	Rotate int
	// Nibbles lists the low register bit of every S-boxed nibble, each
	// in 0..76.
	Nibbles []int
	// Counter is the register bit receiving bit 0 of the round counter,
	// in 0..75 so the five counter bits of up to 31 rounds fit.
	Counter int
}

// check panics on a declaration outside the register.
func (s *Schedule80) check() {
	if s.Rotate < 0 || s.Rotate >= 80 || s.Counter < 0 || s.Counter > 75 {
		panic("bitslice: Schedule80 rotation or counter position out of range")
	}
	for _, j := range s.Nibbles {
		if j < 0 || j > 76 {
			panic("bitslice: Schedule80 nibble position out of range")
		}
	}
}

// Expand derives the Rounds+1 round keys from a 10-byte big-endian master
// key (key[0] holds register bits 79..72): rk[r-1] is round key r and
// rk[Rounds] the whitening key.
func (e *SPN64) Expand(key []byte) ([]uint64, error) {
	if len(key) != keyBytes80 {
		return nil, fmt.Errorf("bitslice: key must be %d bytes (80 bits), got %d bytes", keyBytes80, len(key))
	}
	rk := make([]uint64, e.Rounds+1)
	e.expand(rk, key80{lo: binary.BigEndian.Uint64(key[2:]), hi: uint64(binary.BigEndian.Uint16(key))})
	return rk, nil
}

// expand fills rk[:Rounds+1] from the register k.
func (e *SPN64) expand(rk []uint64, k key80) {
	for r := 1; r <= e.Rounds; r++ {
		rk[r-1] = k.bits(16)
		k = e.sched.update(k, &e.Canon, r)
	}
	rk[e.Rounds] = k.bits(16)
}

// update runs schedule update r on a scalar register with S-box sb.
func (s *Schedule80) update(k key80, sb *[16]byte, r int) key80 {
	k = k.rotl(s.Rotate)
	for _, j := range s.Nibbles {
		k.substitute(j, sb)
	}
	k.xor(s.Counter, uint64(r))
	return k
}

// invUpdate inverts update r on a scalar register, isb being the inverse
// S-box.
func (s *Schedule80) invUpdate(k key80, isb *[16]byte, r int) key80 {
	k.xor(s.Counter, uint64(r))
	for i := len(s.Nibbles) - 1; i >= 0; i-- {
		k.substitute(s.Nibbles[i], isb)
	}
	return k.rotl((80 - s.Rotate) % 80)
}

// invUpdatePlanes inverts update r on every lane of a bit-plane register,
// inv being the inverse S-box circuit.
func (s *Schedule80) invUpdatePlanes(k *KeyReg80, inv *Sbox4, r int) {
	k.XorConst(s.Counter, uint64(r))
	for i := len(s.Nibbles) - 1; i >= 0; i-- {
		k.Sbox(inv, s.Nibbles[i])
	}
	k.RotateLeft((80 - s.Rotate) % 80)
}

// key80 is an 80-bit key register in scalar form: lo holds bits 0..63,
// hi bits 64..79.  Go panics on negative shift counts, so every access
// branches on whether it starts at bit 64 or above.
type key80 struct{ lo, hi uint64 }

// bits returns the register shifted right by j: bits j..j+63, zero-filled
// above bit 79.
func (k key80) bits(j int) uint64 {
	if j >= 64 {
		return k.hi >> uint(j-64)
	}
	return k.lo>>uint(j) | k.hi<<uint(64-j)
}

// xor XORs v into the register at bits j and up; bits past 79 drop out.
func (k *key80) xor(j int, v uint64) {
	if j >= 64 {
		k.hi ^= v << uint(j-64) & 0xFFFF
		return
	}
	k.lo ^= v << uint(j)
	k.hi ^= v >> uint(64-j) & 0xFFFF
}

// substitute passes the nibble at bits j..j+3 through sb.
func (k *key80) substitute(j int, sb *[16]byte) {
	x := k.bits(j) & 0xF
	k.xor(j, x^uint64(sb[x]&0xF))
}

// rotl rotates the register left by n bits (0 <= n < 80): the high n
// bits shifted down to the bottom, the rest shifted up.
func (k key80) rotl(n int) key80 {
	out := key80{lo: k.bits(80 - n), hi: k.bits(144 - n)}
	out.xor(n, k.lo)
	out.xor(n+64, k.hi)
	return out
}

// KeyReg80 is an 80-bit key register in bit-plane form, for key-sliced
// search over the 80-bit ciphers' schedules: each plane carries one
// register bit (bit 0 least significant) of 64 independent registers, one
// per lane.  A rotation renames planes instead of moving them: logical
// bit j lives in p[(j+off)%80].
type KeyReg80 struct {
	p   [80]uint64
	off int
}

// lanePattern[j] has bit b set exactly when bit j of b is set, so loading
// it into planes 0..5 numbers the lanes 0..63 in the register's low bits.
var lanePattern = [6]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// LoadLanes sets lane b to the 80-bit value hi<<16 | lo with its low six
// bits replaced by b: the 64 consecutive registers from hi<<16 | lo&^63.
func (k *KeyReg80) LoadLanes(hi uint64, lo uint16) {
	k.off = 0
	for j := 6; j < 16; j++ {
		k.p[j] = -(uint64(lo) >> uint(j) & 1)
	}
	for j := 16; j < 80; j++ {
		k.p[j] = -(hi >> uint(j-16) & 1)
	}
	copy(k.p[:6], lanePattern[:])
}

// plane returns the plane of logical register bit j.
func (k *KeyReg80) plane(j int) *uint64 { return &k.p[(j+k.off)%80] }

// XorConst XORs the constant v into every lane's register at bits j and
// up (bit i of v into register bit j+i).
func (k *KeyReg80) XorConst(j int, v uint64) {
	for ; v != 0; v >>= 1 {
		if v&1 != 0 {
			*k.plane(j) = ^*k.plane(j)
		}
		j++
	}
}

// Sbox substitutes the nibble at register bits j..j+3 of every lane
// through the circuit s.
func (k *KeyReg80) Sbox(s *Sbox4, j int) {
	var q [4]uint64
	for i := range q {
		q[i] = *k.plane(j + i)
	}
	s.Apply(&q)
	for i := range q {
		*k.plane(j + i) = q[i]
	}
}

// RotateLeft rotates every lane's register left by n bits (0 <= n < 80).
func (k *KeyReg80) RotateLeft(n int) { k.off = (k.off + 80 - n) % 80 }

// Top64 writes the planes of register bits 16..79 — the round key of both
// 80-bit ciphers — to dst, dst[i] holding bit 16+i.
func (k *KeyReg80) Top64(dst *[64]uint64) {
	n := copy(dst[:], k.p[(16+k.off)%80:])
	copy(dst[n:], k.p[:])
}
