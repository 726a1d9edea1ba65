package registry

import (
	"bytes"
	"testing"

	"explframe/internal/stats"
)

// newKeyed returns a keyed instance of the cipher with a random key.
func newKeyed(t *testing.T, c Cipher, rng *stats.RNG) Instance {
	t.Helper()
	key := make([]byte, c.KeyBytes())
	rng.Bytes(key)
	inst, err := c.New(key)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// faultedTable corrupts the given number of random entries of a fresh
// canonical table.
func faultedTable(c Cipher, rng *stats.RNG, faults int) []byte {
	table := c.SBox()
	for k := 0; k < faults; k++ {
		table[rng.Intn(c.TableLen())] ^= byte(1 + rng.Intn(255))
	}
	return table
}

func randBatch(c Cipher, rng *stats.RNG, n int) (dst, src [][]byte) {
	dst = make([][]byte, n)
	src = make([][]byte, n)
	for i := 0; i < n; i++ {
		dst[i] = make([]byte, c.BlockSize())
		src[i] = make([]byte, c.BlockSize())
		rng.Bytes(src[i])
	}
	return dst, src
}

// TestEncryptBatchMatchesScalar is the batch API's core property over
// every registered cipher: EncryptBatch equals a loop of Encrypt lane for
// lane — at a batch of one, at non-multiple-of-lane remainders, across
// multiple full lanes, and with 0, 1 and many faulted table entries.
func TestEncryptBatchMatchesScalar(t *testing.T) {
	rng := stats.NewRNG(0xba7c4)
	sizes := []int{1, 2, BatchLanes - 1, BatchLanes, BatchLanes + 1, 2*BatchLanes + 17}
	for _, name := range Names() {
		c := MustGet(name)
		inst := newKeyed(t, c, rng)
		for _, faults := range []int{0, 1, 5} {
			table := faultedTable(c, rng, faults)
			for _, n := range sizes {
				dst, src := randBatch(c, rng, n)
				inst.EncryptBatch(table, dst, src)
				want := make([]byte, c.BlockSize())
				for i := 0; i < n; i++ {
					inst.Encrypt(table, want, src[i])
					if !bytes.Equal(dst[i], want) {
						t.Fatalf("%s faults=%d n=%d lane %d: batch %x != scalar %x",
							name, faults, n, i, dst[i], want)
					}
				}
			}
		}
	}
}

// TestEncryptWithFaultBatchMatchesScalar checks the transient-fault batch
// path against the scalar EncryptWithFault at every round, with per-lane
// masks.
func TestEncryptWithFaultBatchMatchesScalar(t *testing.T) {
	rng := stats.NewRNG(0xfab47)
	for _, name := range Names() {
		c := MustGet(name)
		inst := newKeyed(t, c, rng)
		table := faultedTable(c, rng, 1)
		for _, round := range []int{1, c.Rounds() / 2, c.Rounds()} {
			n := BatchLanes + 9 // one bitsliced chunk plus a scalar remainder
			dst, src := randBatch(c, rng, n)
			masks := make([][]byte, n)
			for i := range masks {
				masks[i] = make([]byte, c.BlockSize())
				rng.Bytes(masks[i])
			}
			inst.EncryptWithFaultBatch(table, dst, src, round, masks)
			want := make([]byte, c.BlockSize())
			for i := 0; i < n; i++ {
				inst.EncryptWithFault(table, want, src[i], round, masks[i])
				if !bytes.Equal(dst[i], want) {
					t.Fatalf("%s round %d lane %d: batch %x != scalar %x", name, round, i, dst[i], want)
				}
			}
		}
	}
}

// TestEncryptBatchLanePermutation: shuffling the input lanes shuffles the
// output lanes identically — no cross-lane leakage in the bitsliced cores.
func TestEncryptBatchLanePermutation(t *testing.T) {
	rng := stats.NewRNG(0x9e2a1)
	for _, name := range Names() {
		c := MustGet(name)
		inst := newKeyed(t, c, rng)
		table := faultedTable(c, rng, 2)
		n := BatchLanes
		dst, src := randBatch(c, rng, n)
		inst.EncryptBatch(table, dst, src)

		perm := rng.Perm(n)
		dst2 := make([][]byte, n)
		src2 := make([][]byte, n)
		for i, p := range perm {
			src2[i] = src[p]
			dst2[i] = make([]byte, c.BlockSize())
		}
		inst.EncryptBatch(table, dst2, src2)
		for i, p := range perm {
			if !bytes.Equal(dst2[i], dst[p]) {
				t.Fatalf("%s: permuted lane %d (orig %d) diverged", name, i, p)
			}
		}
	}
}

// TestScalarOnlySwitch: forcing the scalar path must be output-invariant,
// which is the property the experiment-level scalar-invariance test leans
// on.
func TestScalarOnlySwitch(t *testing.T) {
	rng := stats.NewRNG(0x5ca1a)
	for _, name := range Names() {
		c := MustGet(name)
		inst := newKeyed(t, c, rng)
		table := faultedTable(c, rng, 1)
		n := BatchLanes + 3
		dst, src := randBatch(c, rng, n)
		inst.EncryptBatch(table, dst, src)

		prev := SetScalarOnly(true)
		if prev {
			t.Fatal("bitsliced cores were already disabled entering the test")
		}
		if !ScalarOnly() {
			t.Fatal("SetScalarOnly(true) did not stick")
		}
		forced := make([][]byte, n)
		for i := range forced {
			forced[i] = make([]byte, c.BlockSize())
		}
		inst.EncryptBatch(table, forced, src)
		SetScalarOnly(false)

		for i := range src {
			if !bytes.Equal(forced[i], dst[i]) {
				t.Fatalf("%s lane %d: scalar-forced batch diverged", name, i)
			}
		}
	}
}

// TestScalarBatchHelpers: the fallback helper is itself equivalent to the
// per-block method, so an external cipher can satisfy EncryptBatch by
// delegation.
func TestScalarBatchHelpers(t *testing.T) {
	rng := stats.NewRNG(0x0c01d)
	c := MustGet("present-80")
	inst := newKeyed(t, c, rng)
	table := faultedTable(c, rng, 1)
	n := 11
	dst, src := randBatch(c, rng, n)
	ScalarEncryptBatch(inst, table, dst, src)
	want := make([]byte, c.BlockSize())
	for i := 0; i < n; i++ {
		inst.Encrypt(table, want, src[i])
		if !bytes.Equal(dst[i], want) {
			t.Fatalf("ScalarEncryptBatch lane %d diverged", i)
		}
	}
}

// TestEncryptBatchLengthMismatchPanics pins the argument contract.
func TestEncryptBatchLengthMismatchPanics(t *testing.T) {
	rng := stats.NewRNG(0xdead1)
	c := MustGet("aes-128")
	inst := newKeyed(t, c, rng)
	table := c.SBox()
	_, src := randBatch(c, rng, 4)
	dst, _ := randBatch(c, rng, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("EncryptBatch accepted mismatched dst/src lengths")
			}
		}()
		inst.EncryptBatch(table, dst, src)
	}()
}

// A faulted table must not cost a batch a heap allocation: PFA trials run
// thousands of 64-block batches against one faulty table.
func TestEncryptBatchFaultedAllocatesNothing(t *testing.T) {
	rng := stats.NewRNG(0xa110c)
	for _, name := range Names() {
		c := MustGet(name)
		inst := newKeyed(t, c, rng)
		table := c.SBox()
		table[rng.Intn(c.TableLen())] ^= 1
		dst, src := randBatch(c, rng, BatchLanes)
		if n := testing.AllocsPerRun(20, func() { inst.EncryptBatch(table, dst, src) }); n != 0 {
			t.Errorf("%s: EncryptBatch of %d blocks with one faulted entry allocated %.1f times", name, BatchLanes, n)
		}
	}
}
