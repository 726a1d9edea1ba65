// Package pfa implements Persistent Fault Analysis (Zhang et al., TCHES
// 2018 — reference [12] of the paper): offline key recovery from
// ciphertexts produced by a cipher whose S-box table carries a persistent
// fault, exactly the state a Rowhammer flip in the victim's table page
// leaves behind.
//
// The core observation, for any SPN whose final round computes
// ct = L(S(x)) ^ K with a GF(2)-linear L: inverting L cell-wise gives
//
//	cell_i(invL(ct)) = S(x_i) ^ k_i
//
// If S-box entry v* is corrupted from y* = S_orig[v*] to some y' != y*, the
// value y* vanishes from the S-box image, so cell i never takes the value
// y* ^ k_i; conversely y' appears with doubled probability.  Observing
// enough ciphertexts, the missing value at each cell reveals the
// corresponding last-round key cell.
//
// The Collector runs this analysis over any cipher registered in
// internal/cipher/registry: pfa.NewCollector(registry.MustGet("aes-128"))
// attacks AES-128, and the same code attacks PRESENT-80 and the
// LILLIPUT-style SPN.
package pfa

import "errors"

// Errors returned by the recovery functions.
var (
	// ErrUnderdetermined reports that some cell position still has more
	// than one missing value: more ciphertexts are needed.
	ErrUnderdetermined = errors.New("pfa: key underdetermined, need more ciphertexts")
	// ErrInconsistent reports observations incompatible with the assumed
	// persistent S-box fault (e.g. no missing value at some position).
	ErrInconsistent = errors.New("pfa: observations inconsistent with the fault hypothesis")
)
