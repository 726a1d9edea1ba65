package registry

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"explframe/internal/cipher/present"
	"explframe/internal/stats"
)

func TestNamesAndAliases(t *testing.T) {
	want := []string{"aes-128", "lilliput-80", "present-80"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range []string{"aes", "AES-128", "present", "Present-80", "lilliput", "LILLIPUT-80"} {
		if _, ok := Get(name); !ok {
			t.Fatalf("Get(%q) missed", name)
		}
	}
	if _, ok := Get("des"); ok {
		t.Fatal("Get accepted an unregistered cipher")
	}
	if MustGet("aes").Name() != "aes-128" {
		t.Fatal("alias did not resolve to the canonical cipher")
	}
}

func TestMustGetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustGet("rot13")
}

// checkCatalogue reports every way a cipher table fails the catalogue
// contract: two canonical names, two aliases, or an alias and a name equal
// up to case (Get folds case, so a shadowed entry would be unreachable).
func checkCatalogue(entries []builtin) error {
	var errs []error
	names, aliases := map[string]bool{}, map[string]bool{}
	for _, b := range entries {
		key := strings.ToLower(b.c.Name())
		if names[key] || aliases[key] {
			errs = append(errs, fmt.Errorf("cipher name %q already taken", b.c.Name()))
		}
		names[key] = true
	}
	for _, b := range entries {
		for _, a := range b.aliases {
			key := strings.ToLower(a)
			if names[key] || aliases[key] {
				errs = append(errs, fmt.Errorf("alias %q of %s already taken", a, b.c.Name()))
			}
			aliases[key] = true
		}
	}
	return errors.Join(errs...)
}

// The built-in table is a valid catalogue, and the check catches a
// duplicate name, a duplicate alias and an alias shadowing a name.
func TestCatalogueContract(t *testing.T) {
	if err := checkCatalogue(builtins); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]builtin{
		"duplicate name":  {aes128{}, nil},
		"duplicate alias": {&spn64{name: "toy-64", e: present.Engine}, []string{"AES"}},
		"shadowing alias": {&spn64{name: "toy-64", e: present.Engine}, []string{"Lilliput-80"}},
	} {
		if checkCatalogue(append(slices.Clone(builtins), bad)) == nil {
			t.Errorf("%s passed the catalogue check", name)
		}
	}
}

// Every registered cipher must satisfy the structural contract the fault
// machinery assumes: coherent metadata, a bijective S-box over its
// entry-bit alphabet, working key schedules, and a correct encrypt/decrypt
// pair through the faultable-table path.
func TestCipherContract(t *testing.T) {
	for _, name := range Names() {
		c := MustGet(name)
		t.Run(name, func(t *testing.T) {
			if c.BlockSize() <= 0 || c.KeyBytes() <= 0 || c.Rounds() <= 0 {
				t.Fatalf("degenerate metadata: %+v", c)
			}
			sb := c.SBox()
			if len(sb) != c.TableLen() {
				t.Fatalf("SBox len %d != TableLen %d", len(sb), c.TableLen())
			}
			if Cells(c)*c.EntryBits() != c.BlockSize()*8 {
				t.Fatalf("cells %d x %d bits do not tile a %d-byte block", Cells(c), c.EntryBits(), c.BlockSize())
			}
			mask := byte(1<<uint(c.EntryBits()) - 1)
			seen := map[byte]bool{}
			for _, v := range sb {
				if v&mask != v {
					t.Fatalf("S-box entry %#x exceeds %d bits", v, c.EntryBits())
				}
				if seen[v] {
					t.Fatalf("S-box value %#x repeated", v)
				}
				seen[v] = true
			}

			// Every other length is refused, including the AES-192/256
			// lengths and the 80-bit ciphers' 10 bytes under AES, and the
			// error names the cipher and both lengths.
			for _, n := range []int{0, c.KeyBytes() - 1, c.KeyBytes() + 1, 10, 16, 24, 32} {
				if n == c.KeyBytes() {
					continue
				}
				_, err := c.New(make([]byte, n))
				if err == nil {
					t.Fatalf("%d-byte key accepted", n)
				}
				for _, want := range []string{c.Name(), fmt.Sprint(c.KeyBytes()), fmt.Sprint(n)} {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("%d-byte key: error %q does not mention %q", n, err, want)
					}
				}
			}
			rng := stats.NewRNG(99)
			key := make([]byte, c.KeyBytes())
			rng.Bytes(key)
			inst, err := c.New(key)
			if err != nil {
				t.Fatal(err)
			}
			pt := make([]byte, c.BlockSize())
			rng.Bytes(pt)
			ct := make([]byte, c.BlockSize())
			inst.Encrypt(sb, ct, pt)
			if bytes.Equal(ct, pt) {
				t.Fatal("encryption is the identity (implausible)")
			}
			back := make([]byte, c.BlockSize())
			inst.Decrypt(back, ct)
			if !bytes.Equal(back, pt) {
				t.Fatalf("decrypt(encrypt(pt)) = %x, want %x", back, pt)
			}
		})
	}
}

// AssembleLastRoundKey must invert the cell extraction: pushing arbitrary
// cells through Assemble and re-extracting them is the identity.
func TestLastRoundCellAssembleInverse(t *testing.T) {
	rng := stats.NewRNG(7)
	for _, name := range Names() {
		c := MustGet(name)
		mask := byte(1<<uint(c.EntryBits()) - 1)
		for trial := 0; trial < 50; trial++ {
			cells := make([]byte, Cells(c))
			for i := range cells {
				cells[i] = byte(rng.Intn(256)) & mask
			}
			key := c.AssembleLastRoundKey(cells)
			if len(key) != c.BlockSize() {
				t.Fatalf("%s: last-round key %d bytes, want %d", name, len(key), c.BlockSize())
			}
			round := make([]byte, Cells(c))
			c.LastRoundCells(round, key)
			if !bytes.Equal(round, cells) {
				t.Fatalf("%s: cells %x -> key %x -> cells %x", name, cells, key, round)
			}
		}
	}
}

// The full PFA contract, exercised through nothing but the interface: under
// a single-entry table fault, the value missing from every LastRoundCells
// position is yStar ^ k_i; assembling those key cells and completing with
// RecoverMaster must return the master key.  This is the property that lets
// internal/fault/pfa attack any registered cipher without cipher-specific
// code.
func TestPFAHookContract(t *testing.T) {
	for _, name := range Names() {
		c := MustGet(name)
		t.Run(name, func(t *testing.T) {
			rng := stats.NewRNG(11)
			key := make([]byte, c.KeyBytes())
			rng.Bytes(key)
			inst, err := c.New(key)
			if err != nil {
				t.Fatal(err)
			}

			clean := c.SBox()
			cleanPT := make([]byte, c.BlockSize())
			rng.Bytes(cleanPT)
			cleanCT := make([]byte, c.BlockSize())
			inst.Encrypt(clean, cleanCT, cleanPT)

			faulty := c.SBox()
			v := rng.Intn(c.TableLen())
			yStar := faulty[v]
			faulty[v] ^= byte(1 << uint(rng.Intn(c.EntryBits())))

			cells := Cells(c)
			vals := 1 << uint(c.EntryBits())
			seen := make([][]bool, cells)
			for i := range seen {
				seen[i] = make([]bool, vals)
			}
			pt := make([]byte, c.BlockSize())
			ct := make([]byte, c.BlockSize())
			cellBuf := make([]byte, cells)
			for n := 0; n < 40*c.TableLen(); n++ {
				rng.Bytes(pt)
				inst.Encrypt(faulty, ct, pt)
				c.LastRoundCells(cellBuf, ct)
				for i, cell := range cellBuf {
					seen[i][cell] = true
				}
			}

			keyCells := make([]byte, cells)
			for i := range seen {
				missing := -1
				for val, s := range seen[i] {
					if !s {
						if missing >= 0 {
							t.Fatalf("cell %d still has %d+ missing values", i, 2)
						}
						missing = val
					}
				}
				if missing < 0 {
					t.Fatalf("cell %d has no missing value under a fault", i)
				}
				keyCells[i] = byte(missing) ^ yStar
			}
			master, ok := c.RecoverMaster(c.AssembleLastRoundKey(keyCells), cleanPT, cleanCT)
			if !ok {
				t.Fatal("RecoverMaster failed")
			}
			if !bytes.Equal(master, key) {
				t.Fatalf("recovered %x want %x", master, key)
			}
		})
	}
}
