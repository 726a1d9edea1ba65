package present

// BlockSize is the PRESENT block size in bytes.
const BlockSize = 8

// KeyBytes is the master key length in bytes (80 bits).
const KeyBytes = 10

var invSbox = func() (inv [16]byte) {
	for i, v := range sbox {
		inv[v] = byte(i)
	}
	return inv
}()

// SBox returns a fresh copy of the S-box.
func SBox() [16]byte { return sbox }

// InvSBox returns a fresh copy of the inverse S-box.
func InvSBox() [16]byte { return invSbox }
