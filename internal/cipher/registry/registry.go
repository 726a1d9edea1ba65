// Package registry is the pluggable victim-cipher registry: it defines the
// Cipher interface the fault machinery runs over — key schedule, round
// count, encrypt-with-faultable-table, and the S-box metadata persistent
// fault analysis needs — and the fixed table of built-in victims.
//
// The ExplFrame attack (and its PFA analysis) only assumes an SPN whose
// final round computes ct = L(S(x)) ^ K for a public table S held in
// corruptible memory and an invertible GF(2)-linear layer L.  Everything
// cipher-specific funnels through this interface, so adding a victim
// cipher is one package plus one table entry (see builtin.go), not a
// cross-cutting rewrite of trace/core/pfa/experiments.
package registry

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Cipher describes one victim block cipher.
//
// The S-box metadata (TableLen, EntryBits, SBox) models the table exactly
// as it sits in victim memory: TableLen bytes, one entry per byte, of which
// only the low EntryBits reach the datapath.  A Rowhammer flip in any
// stored bit is a legal fault; flips above EntryBits are harmless, which
// the attack's usable-flip predicate checks generically.
type Cipher interface {
	// Name is the canonical name, e.g. "aes-128".
	Name() string
	// BlockSize is the block size in bytes.
	BlockSize() int
	// KeyBytes is the master key length in bytes.
	KeyBytes() int
	// Rounds is the number of cipher rounds.
	Rounds() int

	// TableLen is the number of S-box entries stored in victim memory
	// (one byte each).
	TableLen() int
	// EntryBits is the number of bits of each entry that reach the
	// datapath (8 for AES, 4 for the nibble ciphers).
	EntryBits() int
	// SBox returns a fresh copy of the canonical table.
	SBox() []byte

	// New returns a keyed instance (the key schedule is computed once; fault
	// analyses assume it predates the fault).
	New(key []byte) (Instance, error)

	// LastRoundCells inverts the cipher's final linear layer into cells
	// (which must hold Cells(c) bytes): cell i equals S(x_i) ^ k_i, where
	// k_i is cell i of the derived last-round key.  This is the structure
	// PFA's missing-value analysis needs; cells are EntryBits wide, one per
	// byte.  The destination form keeps the per-ciphertext hot path
	// allocation-free.
	LastRoundCells(cells, ct []byte)
	// AssembleLastRoundKey maps recovered key cells back to the last-round
	// key in its byte form (the inverse of what LastRoundCells does to K).
	AssembleLastRoundKey(cells []byte) []byte
	// RecoverMaster completes an attack from the recovered last-round key.
	// plaintext/ciphertext are one clean known pair used to resolve key
	// schedules that the last round key does not fully determine (and to
	// verify the result when it does); a nil pair skips verification where
	// the schedule inverts uniquely.  A non-nil hint lets a cipher whose
	// completion searches narrow that search from the faulty ciphertexts;
	// the result is the same with or without it.
	RecoverMaster(lastRoundKey, plaintext, ciphertext []byte, hint *FaultHint) ([]byte, bool)
	// RecoverCost is the number of master-key guesses one RecoverMaster
	// call tests in the worst case: 1 for AES-128's unique inversion, 2^16
	// for the 80-bit ciphers, whose key-sliced search covers the register
	// bits the last round key hides 64 guesses per bitsliced pass.  A hint
	// usually cuts the 80-bit search to a handful of guesses, but a wrong
	// last round key still costs all 2^16, so the multi-fault search
	// budgets its candidate enumeration by this worst case.
	RecoverCost() int
}

// FaultHint is what a single-fault persistent fault analysis knows beyond
// the last round key: the faulty ciphertexts it observed and the one value
// the corrupted table drops from its image and the one it emits twice.
type FaultHint struct {
	// Ciphertexts holds the observed faulty ciphertexts, BlockSize bytes
	// each, back to back.
	Ciphertexts []byte
	// Vanished is the value the corrupted table never emits (y*).
	Vanished byte
	// Doubled is the value the corrupted table emits for two inputs (y').
	Doubled byte
}

// Instance is a keyed cipher instance whose encryptions read the S-box from
// a caller-provided table — the victim re-reads its (simulated, corruptible)
// memory on every block, which is what makes a DRAM fault persistent.
type Instance interface {
	// Encrypt enciphers one block using the given table (TableLen bytes,
	// possibly corrupted).  dst and src must be at least BlockSize bytes.
	Encrypt(table, dst, src []byte)
	// Decrypt deciphers one block using the canonical inverse table.
	//doclint:keep the round-trip oracle of FuzzInstanceContract and TestCipherContract
	Decrypt(dst, src []byte)
	// EncryptBatch enciphers len(src) independent blocks with the same
	// table, writing ciphertext i to dst[i] (len(dst) must equal
	// len(src); every block must be at least BlockSize bytes).  The
	// contract is strict per-lane equivalence with Encrypt — faulted
	// tables included — so consumers may batch freely; the built-in
	// ciphers route full BatchLanes-wide chunks through a bitsliced core
	// and the remainder through the scalar path, and ScalarEncryptBatch
	// is the all-scalar fallback for ciphers without one.
	EncryptBatch(table []byte, dst, src [][]byte)
	// EncryptWithFaultBatch enciphers like EncryptBatch but XORs
	// masks[i] (BlockSize bytes) into block i's state at the entry of
	// the 1-based round — the transient fault differential fault
	// analysis assumes, as opposed to the persistent table fault the
	// table argument models.  The strict per-lane contract holds here
	// too: a one-block batch takes the scalar path, so it is every
	// lane's reference.  It panics if round is outside [1, Rounds].
	EncryptWithFaultBatch(table []byte, dst, src [][]byte, round int, masks [][]byte)
}

// BatchLanes is the lane width of the built-in bitsliced cores: batches
// are processed in chunks of this many blocks, with any remainder taking
// the scalar path.  Consumers sizing their batches as multiples of
// BatchLanes get the full speedup; any other size is merely slower, never
// wrong.
const BatchLanes = 64

// scalarOnly, when set, routes every EncryptBatch/EncryptWithFaultBatch
// call of the built-in ciphers through the scalar per-block path.
var scalarOnly atomic.Bool

// SetScalarOnly forces (true) or re-enables (false) the bitsliced batch
// cores globally, returning the previous setting.  The batch API's
// equivalence contract makes the switch unobservable except in speed; it
// exists so the invariance tests can check experiment tables against the
// results book with the cores on and off.
//
//doclint:keep the experiments invariance test selects the scalar reference path
func SetScalarOnly(v bool) bool { return scalarOnly.Swap(v) }

// ScalarOnly reports whether the bitsliced batch cores are disabled.
func ScalarOnly() bool { return scalarOnly.Load() }

// ScalarEncryptBatch implements Instance.EncryptBatch by looping the
// scalar Encrypt — the fallback for Instances without a bitsliced core.
func ScalarEncryptBatch(in Instance, table []byte, dst, src [][]byte) {
	if len(dst) != len(src) {
		panic("registry: batch dst/src length mismatch")
	}
	for i := range src {
		in.Encrypt(table, dst[i], src[i])
	}
}

// Cells returns the number of PFA cell positions per block: one per S-box
// lookup in the final round.
func Cells(c Cipher) int { return c.BlockSize() * 8 / c.EntryBits() }

// Get looks a built-in cipher up by canonical name or alias,
// case-insensitively.
func Get(name string) (Cipher, bool) {
	key := strings.ToLower(name)
	for _, b := range builtins {
		if strings.ToLower(b.c.Name()) == key ||
			slices.ContainsFunc(b.aliases, func(a string) bool { return strings.ToLower(a) == key }) {
			return b.c, true
		}
	}
	return nil, false
}

// MustGet is Get for built-in-by-construction names; it panics on a miss.
func MustGet(name string) Cipher {
	c, ok := Get(name)
	if !ok {
		panic(fmt.Sprintf("registry: unknown cipher %q", name))
	}
	return c
}

// Names returns the canonical names of every built-in cipher, sorted.
func Names() []string {
	out := make([]string, 0, len(builtins))
	for _, b := range builtins {
		out = append(out, strings.ToLower(b.c.Name()))
	}
	sort.Strings(out)
	return out
}
