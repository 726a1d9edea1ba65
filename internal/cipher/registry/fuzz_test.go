package registry

import (
	"bytes"
	"testing"

	"explframe/internal/stats"
)

// FuzzInstanceContract pins the adapter contract over every registered
// cipher: New refuses every key length but KeyBytes; under the canonical
// table Decrypt inverts Encrypt; and with a faulted table, EncryptBatch
// and EncryptWithFaultBatch over 0..130 blocks (across the 64-lane chunk
// boundary) equal the per-block scalar calls: Encrypt, and a one-block
// EncryptWithFaultBatch, which takes the scalar path.
// Run with: go test -fuzz=FuzzInstanceContract ./internal/cipher/registry
func FuzzInstanceContract(f *testing.F) {
	f.Add(uint8(0), uint8(16), uint64(1), uint8(130), uint8(1), uint8(1))
	f.Add(uint8(0), uint8(24), uint64(2), uint8(64), uint8(2), uint8(10))
	f.Add(uint8(1), uint8(10), uint64(3), uint8(65), uint8(3), uint8(29))
	f.Add(uint8(2), uint8(16), uint64(4), uint8(0), uint8(0), uint8(31))
	f.Fuzz(func(t *testing.T, which, keyLen uint8, seed uint64, blocks, faults, round uint8) {
		names := Names()
		c := MustGet(names[int(which)%len(names)])
		rng := stats.NewRNG(seed)

		probe := make([]byte, keyLen)
		rng.Bytes(probe)
		if _, err := c.New(probe); (err == nil) != (int(keyLen) == c.KeyBytes()) {
			t.Fatalf("%s: New(%d-byte key) error = %v; KeyBytes is %d", c.Name(), keyLen, err, c.KeyBytes())
		}

		key := make([]byte, c.KeyBytes())
		rng.Bytes(key)
		inst, err := c.New(key)
		if err != nil {
			t.Fatalf("%s: New(%x): %v", c.Name(), key, err)
		}
		n := int(blocks) % (2*BatchLanes + 3)
		r := int(round)%c.Rounds() + 1
		table := c.SBox()
		for k := 0; k < int(faults%4); k++ {
			table[rng.Intn(c.TableLen())] ^= byte(1 + rng.Intn(255))
		}
		src, dst, masks := make([][]byte, n), make([][]byte, n), make([][]byte, n)
		for i := range src {
			src[i], dst[i], masks[i] = make([]byte, c.BlockSize()), make([]byte, c.BlockSize()), make([]byte, c.BlockSize())
			rng.Bytes(src[i])
			rng.Bytes(masks[i])
		}

		canon := c.SBox()
		ct, back := make([]byte, c.BlockSize()), make([]byte, c.BlockSize())
		for i := range src {
			inst.Encrypt(canon, ct, src[i])
			inst.Decrypt(back, ct)
			if !bytes.Equal(back, src[i]) {
				t.Fatalf("%s: Decrypt(Encrypt(%x)) = %x", c.Name(), src[i], back)
			}
		}

		want := make([]byte, c.BlockSize())
		inst.EncryptBatch(table, dst, src)
		for i := range src {
			inst.Encrypt(table, want, src[i])
			if !bytes.Equal(dst[i], want) {
				t.Fatalf("%s: EncryptBatch lane %d/%d = %x, Encrypt %x", c.Name(), i, n, dst[i], want)
			}
		}
		inst.EncryptWithFaultBatch(table, dst, src, r, masks)
		for i := range src {
			inst.EncryptWithFaultBatch(table, [][]byte{want}, src[i:i+1], r, masks[i:i+1])
			if !bytes.Equal(dst[i], want) {
				t.Fatalf("%s: EncryptWithFaultBatch round %d lane %d/%d = %x, one-block batch %x", c.Name(), r, i, n, dst[i], want)
			}
		}
	})
}
