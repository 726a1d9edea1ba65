package registry

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"explframe/internal/cipher/aes"
	"explframe/internal/cipher/bitslice"
	"explframe/internal/cipher/lilliput"
	"explframe/internal/cipher/present"
)

// builtin is one catalogue entry: a cipher and the aliases Get accepts
// besides its canonical name.
type builtin struct {
	c       Cipher
	aliases []string
}

// builtins are the victims.  Each adapter translates one cipher package's
// native API onto the Cipher interface; adding a victim means writing its
// package and one more entry here.  Both 64-bit SPNs share one adapter,
// told apart by their engine.
var builtins = []builtin{
	{aes128{}, []string{"aes"}},
	{&spn64{name: "present-80", e: present.Engine}, []string{"present"}},
	{&spn64{name: "lilliput-80", e: lilliput.Engine}, []string{"lilliput"}},
}

// checkKey rejects a key of any length but c.KeyBytes(), with one error
// shape for every cipher that names the cipher and both lengths.
func checkKey(c Cipher, key []byte) error {
	if len(key) != c.KeyBytes() {
		return fmt.Errorf("registry: %s takes a %d-byte key, got %d bytes", c.Name(), c.KeyBytes(), len(key))
	}
	return nil
}

// forBatch checks a batch's lengths and walks it: full BatchLanes-wide
// chunks go to sliced (unless SetScalarOnly is on) and the remainder, one
// block at a time, to scalar.  masks is nil for a batch without transient
// faults.
func forBatch(dst, src, masks [][]byte, sliced func(lo, hi int), scalar func(i int)) {
	if len(dst) != len(src) || masks != nil && len(masks) != len(src) {
		panic("registry: batch dst/src/masks length mismatch")
	}
	i := 0
	if !ScalarOnly() {
		for ; i+BatchLanes <= len(src); i += BatchLanes {
			sliced(i, i+BatchLanes)
		}
	}
	for ; i < len(src); i++ {
		scalar(i)
	}
}

// --- AES-128 -------------------------------------------------------------

type aes128 struct{}

func (aes128) Name() string     { return "aes-128" }
func (aes128) BlockSize() int   { return aes.BlockSize }
func (aes128) KeyBytes() int    { return 16 }
func (aes128) Rounds() int      { return 10 }
func (aes128) TableLen() int    { return 256 }
func (aes128) EntryBits() int   { return 8 }
func (aes128) RecoverCost() int { return 1 }

func (aes128) SBox() []byte {
	sb := aes.SBox()
	return sb[:]
}

func (c aes128) New(key []byte) (Instance, error) {
	if err := checkKey(c, key); err != nil {
		return nil, err
	}
	ks, err := aes.Expand(key)
	if err != nil {
		return nil, err
	}
	return &aesInstance{ks: ks}, nil
}

// LastRoundCells: AES's final-round ShiftRows only permutes which S-box
// lookup feeds which byte; ciphertext byte i already equals
// S[state[shift(i)]] ^ k10[i], so the cells are the ciphertext bytes.
func (aes128) LastRoundCells(cells, ct []byte) {
	copy(cells, ct[:aes.BlockSize])
}

func (aes128) AssembleLastRoundKey(cells []byte) []byte {
	return append([]byte(nil), cells[:aes.BlockSize]...)
}

func (aes128) RecoverMaster(lastRoundKey, plaintext, ciphertext []byte, _ *FaultHint) ([]byte, bool) {
	var k10 [16]byte
	copy(k10[:], lastRoundKey)
	m := aes.RecoverMasterFromLastRound(k10)
	if plaintext != nil {
		// The schedule stays on the stack and the key is copied out only
		// on a hit: a multi-fault completion rejects thousands of
		// candidates without allocating.
		ks, err := aes.Expand(m[:])
		if err != nil {
			return nil, false
		}
		sb := aes.SBox()
		var buf [16]byte
		aes.EncryptBlock(ks, &sb, buf[:], plaintext)
		if !bytes.Equal(buf[:], ciphertext) {
			return nil, false
		}
	}
	return bytes.Clone(m[:]), true
}

type aesInstance struct{ ks *aes.Schedule }

func (in *aesInstance) Encrypt(table, dst, src []byte) {
	var sb [256]byte
	copy(sb[:], table)
	aes.EncryptBlock(in.ks, &sb, dst, src)
}

func (in *aesInstance) Decrypt(dst, src []byte) {
	isb := aes.InvSBox()
	aes.DecryptBlock(in.ks, &isb, dst, src)
}

func (in *aesInstance) EncryptBatch(table []byte, dst, src [][]byte) {
	var sb [256]byte
	copy(sb[:], table)
	forBatch(dst, src, nil,
		func(lo, hi int) { aes.EncryptBlocksBitsliced(in.ks, &sb, dst[lo:hi], src[lo:hi]) },
		func(i int) { aes.EncryptBlock(in.ks, &sb, dst[i], src[i]) })
}

func (in *aesInstance) EncryptWithFaultBatch(table []byte, dst, src [][]byte, round int, masks [][]byte) {
	var sb [256]byte
	copy(sb[:], table)
	var m [16]byte
	forBatch(dst, src, masks,
		func(lo, hi int) {
			aes.EncryptBlocksWithFaultBitsliced(in.ks, &sb, dst[lo:hi], src[lo:hi], round, masks[lo:hi])
		},
		func(i int) {
			copy(m[:], masks[i])
			aes.EncryptBlockWithFault(in.ks, &sb, dst[i], src[i], round, &m)
		})
}

// --- 64-bit SPNs: PRESENT-80 and the LILLIPUT-style SPN ------------------

// spn64 adapts one 64-bit SPN on a bitslice.SPN64 engine with an 80-bit
// key register.  The final round computes ct = PLayer(S(x)) ^ K_last, so
// nibble i of InvPLayer(ct) equals S(x_i) ^ nibble i of InvPLayer(K_last).
type spn64 struct {
	name string
	e    *bitslice.SPN64
}

func (c *spn64) Name() string     { return c.name }
func (c *spn64) BlockSize() int   { return 8 }
func (c *spn64) KeyBytes() int    { return 10 }
func (c *spn64) Rounds() int      { return c.e.Rounds }
func (c *spn64) TableLen() int    { return 16 }
func (c *spn64) EntryBits() int   { return 4 }
func (c *spn64) RecoverCost() int { return 1 << 16 }

func (c *spn64) SBox() []byte {
	sb := c.e.Canon
	return sb[:]
}

func (c *spn64) New(key []byte) (Instance, error) {
	if err := checkKey(c, key); err != nil {
		return nil, err
	}
	rk, err := c.e.Expand(key)
	if err != nil {
		return nil, err
	}
	return &spn64Instance{e: c.e, rk: rk}, nil
}

func (c *spn64) LastRoundCells(cells, ct []byte) {
	u := c.e.InvPLayer(be.Uint64(ct))
	for i := 0; i < 16; i++ {
		cells[i] = byte((u >> uint(4*i)) & 0xF)
	}
}

func (c *spn64) AssembleLastRoundKey(cells []byte) []byte {
	var kPrime uint64
	for i, cell := range cells[:16] {
		kPrime |= uint64(cell&0xF) << uint(4*i)
	}
	return be.AppendUint64(nil, c.e.PLayer(kPrime))
}

// RecoverMaster searches the 16 register bits the last round key hides;
// a hint rules out most of them a round deeper (bitslice.SPN64.RuleOut).
func (c *spn64) RecoverMaster(lastRoundKey, plaintext, ciphertext []byte, hint *FaultHint) ([]byte, bool) {
	if plaintext == nil {
		return nil, false // the 16 hidden register bits need a known pair
	}
	last := be.Uint64(lastRoundKey)
	var out bitslice.RuledOut
	if hint != nil {
		out = c.e.RuleOut(last, hint.Ciphertexts, hint.Vanished, hint.Doubled)
	}
	key, _, ok := c.e.RecoverMaster80(last, be.Uint64(plaintext), be.Uint64(ciphertext), out)
	return key, ok
}

// be is the 64-bit SPNs' big-endian byte form of a block.
var be = binary.BigEndian

type spn64Instance struct {
	e  *bitslice.SPN64
	rk []uint64
}

func (in *spn64Instance) Encrypt(table, dst, src []byte) {
	var sb [16]byte
	copy(sb[:], table)
	in.encrypt(&sb, dst, src)
}

func (in *spn64Instance) encrypt(sb *[16]byte, dst, src []byte) {
	be.PutUint64(dst, in.e.Encrypt(in.rk, sb, be.Uint64(src)))
}

func (in *spn64Instance) Decrypt(dst, src []byte) {
	be.PutUint64(dst, in.e.Decrypt(in.rk, be.Uint64(src)))
}

func (in *spn64Instance) EncryptBatch(table []byte, dst, src [][]byte) {
	var sb [16]byte
	copy(sb[:], table)
	forBatch(dst, src, nil,
		func(lo, hi int) { in.e.EncryptBatch(in.rk, sb[:], dst[lo:hi], src[lo:hi]) },
		func(i int) { in.encrypt(&sb, dst[i], src[i]) })
}

func (in *spn64Instance) EncryptWithFaultBatch(table []byte, dst, src [][]byte, round int, masks [][]byte) {
	var sb [16]byte
	copy(sb[:], table)
	forBatch(dst, src, masks,
		func(lo, hi int) {
			in.e.EncryptWithFaultBatch(in.rk, sb[:], dst[lo:hi], src[lo:hi], round, masks[lo:hi])
		},
		func(i int) {
			be.PutUint64(dst[i], in.e.EncryptWithFault(in.rk, &sb, be.Uint64(src[i]), round, be.Uint64(masks[i])))
		})
}
