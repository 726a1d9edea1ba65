package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"explframe/internal/cipher/aes"
	"explframe/internal/cipher/lilliput"
	"explframe/internal/cipher/present"
	"explframe/internal/cipher/registry"
	"explframe/internal/dram"
	"explframe/internal/kernel"
	"explframe/internal/stats"
	"explframe/internal/vm"
)

func testMachine(t *testing.T) *kernel.Machine {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.Geometry = dram.Geometry{Banks: 4, Rows: 512, RowBytes: 8192}
	m, err := kernel.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAESVictimEncryptsCorrectly(t *testing.T) {
	m := testMachine(t)
	key := []byte("victim-aes-key-0")
	v, err := SpawnVictim(m, 0, "aes-128", key, 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("plaintext block!")
	got, err := v.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	// Reference with the pure implementation.
	ks, _ := aes.Expand(key)
	sb := aes.SBox()
	want := make([]byte, 16)
	aes.EncryptBlock(ks, &sb, want, pt)
	if !bytes.Equal(got, want) {
		t.Fatalf("victim ciphertext %x != reference %x", got, want)
	}
	if _, err := v.Encrypt(make([]byte, 8)); err == nil {
		t.Fatal("wrong block size accepted")
	}
}

func TestPresentVictimEncryptsCorrectly(t *testing.T) {
	m := testMachine(t)
	key := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	v, err := SpawnVictim(m, 0, "present", key, 2, 0) // alias resolves
	if err != nil {
		t.Fatal(err)
	}
	if v.Cipher.Name() != "present-80" {
		t.Fatalf("victim cipher %q", v.Cipher.Name())
	}
	pt := []byte{0, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef}
	got, err := v.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	rk, _ := present.Engine.Expand(key)
	sb := present.Engine.Canon
	want := binary.BigEndian.AppendUint64(nil, present.Engine.Encrypt(rk, &sb, binary.BigEndian.Uint64(pt)))
	if !bytes.Equal(got, want) {
		t.Fatalf("victim %x != reference %x", got, want)
	}
}

func TestLilliputVictimEncryptsCorrectly(t *testing.T) {
	m := testMachine(t)
	key := []byte{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	v, err := SpawnVictim(m, 0, "lilliput-80", key, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	got, err := v.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	rk, _ := lilliput.Engine.Expand(key)
	sb := lilliput.SBox()
	want := binary.BigEndian.AppendUint64(nil, lilliput.Engine.Encrypt(rk, &sb, binary.BigEndian.Uint64(pt)))
	if !bytes.Equal(got, want) {
		t.Fatalf("victim %x != reference %x", got, want)
	}
}

// Corrupting the victim's in-memory table must change ciphertexts and be
// reported by TableCorruptions.
func TestVictimTableCorruption(t *testing.T) {
	m := testMachine(t)
	key := []byte("victim-aes-key-1")
	v, err := SpawnVictim(m, 0, "aes-128", key, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	idx, vals, err := v.TableCorruptions()
	if err != nil || len(idx) != 0 {
		t.Fatalf("fresh table reported corrupted: %v %x %v", idx, vals, err)
	}

	pt := []byte("plaintext block!")
	before, _ := v.Encrypt(pt)

	// Flip one bit of table entry 0x42 directly in victim memory.
	cur, err := v.Proc.Load(v.tableVA + 0x42)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Proc.Store(v.tableVA+0x42, cur^0x08); err != nil {
		t.Fatal(err)
	}

	idx, vals, err = v.TableCorruptions()
	if err != nil || len(idx) != 1 || idx[0] != 0x42 || vals[0] != cur^0x08 {
		t.Fatalf("corruption not detected: %v %x %v", idx, vals, err)
	}
	after, _ := v.Encrypt(pt)
	if bytes.Equal(before, after) {
		t.Fatal("corrupted table produced identical ciphertext (entry unused is astronomically unlikely over full rounds)")
	}
}

func TestSpawnVictimValidation(t *testing.T) {
	m := testMachine(t)
	if _, err := SpawnVictim(m, 0, "rot13", []byte("victim-aes-key-0"), 4, 0); err == nil {
		t.Fatal("unknown cipher accepted")
	}
	if _, err := SpawnVictim(m, 0, "aes-128", []byte("shortkey"), 4, 0); err == nil {
		t.Fatal("bad key accepted")
	}
	if _, err := SpawnVictim(m, 0, "aes-128", []byte("victim-aes-key-0"), 0, 0); err == nil {
		t.Fatal("zero pages accepted")
	}
	if _, err := SpawnVictim(m, 0, "aes-128", []byte("victim-aes-key-0"), 4, vm.PageSize-100); err == nil {
		t.Fatal("table overflowing the page accepted")
	}
	if _, err := SpawnVictim(m, 9, "aes-128", []byte("victim-aes-key-0"), 4, 0); err == nil {
		t.Fatal("bad cpu accepted")
	}
}

func TestVictimTouchesTablePageFirst(t *testing.T) {
	m := testMachine(t)
	// Plant a frame at the hot end of CPU0's cache, then spawn the victim:
	// its table page must receive that frame.
	p, _ := m.Spawn("planter", 0)
	base, _ := p.Mmap(4 * vm.PageSize)
	p.Touch(base, 4*vm.PageSize)
	pa, _ := p.Translate(base + vm.PageSize)
	p.Munmap(base+vm.PageSize, vm.PageSize)

	v, err := SpawnVictim(m, 0, "aes-128", []byte("victim-aes-key-2"), 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	vpa, ok := v.Proc.Translate(v.TablePage())
	if !ok {
		t.Fatal("table not resident")
	}
	if vpa>>12 != pa>>12 {
		t.Fatalf("table page frame %d, want planted %d", vpa>>12, pa>>12)
	}
}

// Every registered cipher must be spawnable and detect its own table
// corruptions through the registry metadata alone.
func TestAllRegisteredCiphersSpawn(t *testing.T) {
	for _, name := range registry.Names() {
		c := registry.MustGet(name)
		m := testMachine(t)
		key := make([]byte, c.KeyBytes())
		for i := range key {
			key[i] = byte(i + 1)
		}
		v, err := SpawnVictim(m, 0, name, key, 2, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		last := c.TableLen() - 1
		cur, _ := v.Proc.Load(v.tableVA + vm.VirtAddr(last))
		if err := v.Proc.Store(v.tableVA+vm.VirtAddr(last), cur^0x01); err != nil {
			t.Fatal(err)
		}
		idx, vals, err := v.TableCorruptions()
		if err != nil || len(idx) != 1 || idx[0] != last {
			t.Fatalf("%s: corruption at %v (%v), want [%d]", name, idx, err, last)
		}
		if vals[0] != cur^0x01 {
			t.Fatalf("%s: corrupted value %#x", name, vals[0])
		}
	}
}

func TestNoiseChurn(t *testing.T) {
	m := testMachine(t)
	rng := stats.NewRNG(1)
	no, err := SpawnNoise(m, 0, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := no.Churn(500); err != nil {
		t.Fatal(err)
	}
	if err := m.Phys().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Churn with zero processes is a no-op.
	empty, _ := SpawnNoise(m, 0, 0, rng)
	if err := empty.Churn(10); err != nil {
		t.Fatal(err)
	}
}
