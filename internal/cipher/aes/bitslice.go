package aes

import "explframe/internal/cipher/bitslice"

// This file is the bitsliced 64-lane AES core: the 128-bit state of 64
// independent blocks is held as 128 uint64 bit-planes (plane 8*i+j is bit
// j of state byte i, lane b at bit b), SubBytes runs the Boyar–Peralta
// 113-gate S-box circuit once per byte position, ShiftRows is a free
// relabelling of plane groups, and MixColumns uses the t = a0^a1^a2^a3
// xtime identity.  Faulted tables are preserved exactly by patching the
// canonical circuit with bitslice.ApplyPatches, the patch idiom the
// 64-bit SPNs share.

// EncryptBlocksBitsliced encrypts up to bitslice.Lanes 16-byte blocks in
// parallel with the given schedule and (possibly corrupted) S-box table,
// bit-for-bit equivalent to EncryptBlock on every lane.
func EncryptBlocksBitsliced(ks *Schedule, sb *[256]byte, dst, src [][]byte) {
	encryptBitsliced(ks, sb, dst, src, 0, nil)
}

// EncryptBlocksWithFaultBitsliced encrypts like EncryptBlocksBitsliced but
// XORs the 16-byte masks[i] into lane i's state at the entry of the given
// 1-based round, matching EncryptBlockWithFault lane for lane.
func EncryptBlocksWithFaultBitsliced(ks *Schedule, sb *[256]byte, dst, src [][]byte, round int, masks [][]byte) {
	if round < 1 || round > rounds {
		panic("aes: fault round out of range")
	}
	encryptBitsliced(ks, sb, dst, src, round, masks)
}

// encryptBitsliced is the common batch body; faultRound 0 means no
// transient fault.
func encryptBitsliced(ks *Schedule, sb *[256]byte, dst, src [][]byte, faultRound int, masks [][]byte) {
	n := len(src)
	if n > bitslice.Lanes {
		panic("aes: batch wider than 64 lanes")
	}
	if len(dst) != n {
		panic("aes: batch dst/src length mismatch")
	}
	var st [128]uint64
	loadPlanes(&st, src, n)

	var fp [128]uint64
	if faultRound != 0 {
		if len(masks) != n {
			panic("aes: batch masks length mismatch")
		}
		loadPlanes(&fp, masks, n)
	}

	var buf [256]bitslice.Patch
	patches := bitslice.DiffTable(buf[:0], sb[:], sbox[:], 0xFF)
	addRoundKeyPlanes(&st, &ks.rk[0])
	for r := 1; r <= rounds; r++ {
		if r == faultRound {
			xorPlanes(&st, &fp)
		}
		subShiftPlanes(&st, patches)
		if r < rounds {
			mixColumnsPlanes(&st)
		}
		addRoundKeyPlanes(&st, &ks.rk[r])
	}

	storePlanes(&st, dst, n)
}

// loadPlanes converts n 16-byte blocks into 128 bit-planes: the low and
// high 8 bytes each form a 64x64 bit matrix transposed in place.
func loadPlanes(st *[128]uint64, blocks [][]byte, n int) {
	lo := (*[64]uint64)(st[0:64])
	hi := (*[64]uint64)(st[64:128])
	for b := 0; b < n; b++ {
		blk := blocks[b]
		if len(blk) < BlockSize {
			panic("aes: short block")
		}
		var l, h uint64
		for i := 7; i >= 0; i-- {
			l = l<<8 | uint64(blk[i])
			h = h<<8 | uint64(blk[8+i])
		}
		lo[b], hi[b] = l, h
	}
	bitslice.Transpose64(lo)
	bitslice.Transpose64(hi)
}

// storePlanes is the inverse of loadPlanes.
func storePlanes(st *[128]uint64, blocks [][]byte, n int) {
	lo := (*[64]uint64)(st[0:64])
	hi := (*[64]uint64)(st[64:128])
	bitslice.Transpose64(lo)
	bitslice.Transpose64(hi)
	for b := 0; b < n; b++ {
		blk := blocks[b]
		if len(blk) < BlockSize {
			panic("aes: short block")
		}
		l, h := lo[b], hi[b]
		for i := 0; i < 8; i++ {
			blk[i] = byte(l)
			blk[8+i] = byte(h)
			l >>= 8
			h >>= 8
		}
	}
}

// addRoundKeyPlanes XORs the broadcast of each round-key bit into its
// plane.
func addRoundKeyPlanes(st *[128]uint64, rk *[16]byte) {
	for i := 0; i < 16; i++ {
		k := rk[i]
		for j := 0; j < 8; j++ {
			st[8*i+j] ^= -(uint64(k) >> uint(j) & 1)
		}
	}
}

// xorPlanes folds the transient-fault planes into the state.
func xorPlanes(st, fp *[128]uint64) {
	for p := range st {
		st[p] ^= fp[p]
	}
}

// subShiftPlanes applies SubBytes then ShiftRows in one pass, as the
// scalar subShift does: output byte i's planes come from the circuit run
// on input byte shift[i]'s planes.  Patches replay the table's faulted
// entries on top of the canonical circuit.
func subShiftPlanes(st *[128]uint64, patches []bitslice.Patch) {
	var out [128]uint64
	for i := 0; i < 16; i++ {
		q := (*[8]uint64)(st[8*shift[i] : 8*shift[i]+8])
		o := (*[8]uint64)(out[8*i : 8*i+8])
		*o = *q
		sboxCircuit(o)
		bitslice.ApplyPatches(q[:], o[:], patches)
	}
	*st = out
}

// mixColumnsPlanes applies MixColumns to each column's four byte groups
// using c_i = a_i ^ t ^ xtime(a_i ^ a_{i+1}) with t = a0^a1^a2^a3; xtime
// on planes is a shift of the bit indices with the 0x1b feedback taps.
func mixColumnsPlanes(st *[128]uint64) {
	for c := 0; c < 4; c++ {
		base := 32 * c
		var a [4][8]uint64
		var t [8]uint64
		for i := 0; i < 4; i++ {
			copy(a[i][:], st[base+8*i:base+8*i+8])
		}
		for j := 0; j < 8; j++ {
			t[j] = a[0][j] ^ a[1][j] ^ a[2][j] ^ a[3][j]
		}
		for i := 0; i < 4; i++ {
			var x [8]uint64
			ni := (i + 1) & 3
			for j := 0; j < 8; j++ {
				x[j] = a[i][j] ^ a[ni][j]
			}
			// xtime(x): bit k of the product is x[k-1] plus the 0x1b
			// feedback of x[7] into bits 0, 1, 3 and 4.
			o := st[base+8*i : base+8*i+8]
			o[0] = a[i][0] ^ t[0] ^ x[7]
			o[1] = a[i][1] ^ t[1] ^ x[0] ^ x[7]
			o[2] = a[i][2] ^ t[2] ^ x[1]
			o[3] = a[i][3] ^ t[3] ^ x[2] ^ x[7]
			o[4] = a[i][4] ^ t[4] ^ x[3] ^ x[7]
			o[5] = a[i][5] ^ t[5] ^ x[4]
			o[6] = a[i][6] ^ t[6] ^ x[5]
			o[7] = a[i][7] ^ t[7] ^ x[6]
		}
	}
}

// sboxCircuit runs the Boyar–Peralta 113-gate AES S-box circuit over the
// eight bit-planes of one byte position, q[0] the least-significant-bit
// plane.  The gate list follows the canonical constant-time AES
// formulation (as in BearSSL's aes_ct); TestSboxCircuitExhaustive pins it
// to the generated table on all 256 inputs.
func sboxCircuit(q *[8]uint64) {
	x0, x1, x2, x3, x4, x5, x6, x7 := q[7], q[6], q[5], q[4], q[3], q[2], q[1], q[0]
	// Top linear transformation.
	y14 := x3 ^ x5
	y13 := x0 ^ x6
	y9 := x0 ^ x3
	y8 := x0 ^ x5
	t0 := x1 ^ x2
	y1 := t0 ^ x7
	y4 := y1 ^ x3
	y12 := y13 ^ y14
	y2 := y1 ^ x0
	y5 := y1 ^ x6
	y3 := y5 ^ y8
	t1 := x4 ^ y12
	y15 := t1 ^ x5
	y20 := t1 ^ x1
	y6 := y15 ^ x7
	y10 := y15 ^ t0
	y11 := y20 ^ y9
	y7 := x7 ^ y11
	y17 := y10 ^ y11
	y19 := y10 ^ y8
	y16 := t0 ^ y11
	y21 := y13 ^ y16
	y18 := x0 ^ y16
	// Non-linear section.
	t2 := y12 & y15
	t3 := y3 & y6
	t4 := t3 ^ t2
	t5 := y4 & x7
	t6 := t5 ^ t2
	t7 := y13 & y16
	t8 := y5 & y1
	t9 := t8 ^ t7
	t10 := y2 & y7
	t11 := t10 ^ t7
	t12 := y9 & y11
	t13 := y14 & y17
	t14 := t13 ^ t12
	t15 := y8 & y10
	t16 := t15 ^ t12
	t17 := t4 ^ t14
	t18 := t6 ^ t16
	t19 := t9 ^ t14
	t20 := t11 ^ t16
	t21 := t17 ^ y20
	t22 := t18 ^ y19
	t23 := t19 ^ y21
	t24 := t20 ^ y18
	t25 := t21 ^ t22
	t26 := t21 & t23
	t27 := t24 ^ t26
	t28 := t25 & t27
	t29 := t28 ^ t22
	t30 := t23 ^ t24
	t31 := t22 ^ t26
	t32 := t31 & t30
	t33 := t32 ^ t24
	t34 := t23 ^ t33
	t35 := t27 ^ t33
	t36 := t24 & t35
	t37 := t36 ^ t34
	t38 := t27 ^ t36
	t39 := t29 & t38
	t40 := t25 ^ t39
	t41 := t40 ^ t37
	t42 := t29 ^ t33
	t43 := t29 ^ t40
	t44 := t33 ^ t37
	t45 := t42 ^ t41
	z0 := t44 & y15
	z1 := t37 & y6
	z2 := t33 & x7
	z3 := t43 & y16
	z4 := t40 & y1
	z5 := t29 & y7
	z6 := t42 & y11
	z7 := t45 & y17
	z8 := t41 & y10
	z9 := t44 & y12
	z10 := t37 & y3
	z11 := t33 & y4
	z12 := t43 & y13
	z13 := t40 & y5
	z14 := t29 & y2
	z15 := t42 & y9
	z16 := t45 & y14
	z17 := t41 & y8
	// Bottom linear transformation.
	t46 := z15 ^ z16
	t47 := z10 ^ z11
	t48 := z5 ^ z13
	t49 := z9 ^ z10
	t50 := z2 ^ z12
	t51 := z2 ^ z5
	t52 := z7 ^ z8
	t53 := z0 ^ z3
	t54 := z6 ^ z7
	t55 := z16 ^ z17
	t56 := z12 ^ t48
	t57 := t50 ^ t53
	t58 := z4 ^ t46
	t59 := z3 ^ t54
	t60 := t46 ^ t57
	t61 := z14 ^ t57
	t62 := t52 ^ t58
	t63 := t49 ^ t58
	t64 := z4 ^ t59
	t65 := t61 ^ t62
	t66 := z1 ^ t63
	s0 := t59 ^ t63
	s6 := t56 ^ ^t62
	s7 := t48 ^ ^t60
	t67 := t64 ^ t65
	s3 := t53 ^ t66
	s4 := t51 ^ t66
	s5 := t47 ^ t65
	s1 := t64 ^ ^s3
	s2 := t55 ^ ^t67
	q[7], q[6], q[5], q[4], q[3], q[2], q[1], q[0] = s0, s1, s2, s3, s4, s5, s6, s7
}
