package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"explframe/internal/cipher/registry"
	"explframe/internal/stats"
)

// CipherEntry is one cipher-core timing row of a trajectory point:
// nanoseconds per encryption through the per-block scalar path and through
// the batched (bitsliced) path, both over the same deterministic workload.
// The ratio between the two is the regression gate `benchtab
// -check-trajectory` holds the bitsliced cores to.
type CipherEntry struct {
	// Cipher is the cipher's registry name (the lowercase canonical key,
	// as reported by registry.Names).
	Cipher string `json:"cipher"`
	// ScalarNsPerEncryption is the per-block cost of the scalar path.
	ScalarNsPerEncryption float64 `json:"scalar_ns_per_encryption"`
	// BitslicedNsPerEncryption is the per-block cost of the batch path at
	// full lane occupancy.
	BitslicedNsPerEncryption float64 `json:"bitsliced_ns_per_encryption"`
	// Lanes is the batch width the bitsliced figure was measured at.
	Lanes int `json:"lanes"`
}

// NewCipherCoreBench builds the deterministic full-batch workload that both
// the trajectory's cipher rows and BenchmarkEncryptBatchPerCipher time, so
// trajectory and benchmark cannot drift: a seed-1 keyed instance, the
// canonical table, and registry.BatchLanes random blocks with a matching
// destination batch.
func NewCipherCoreBench(c registry.Cipher) (inst registry.Instance, table []byte, dst, src [][]byte, err error) {
	rng := stats.NewRNG(1)
	key := make([]byte, c.KeyBytes())
	rng.Bytes(key)
	inst, err = c.New(key)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	bs := c.BlockSize()
	buf := make([]byte, 2*registry.BatchLanes*bs)
	src = make([][]byte, registry.BatchLanes)
	dst = make([][]byte, registry.BatchLanes)
	for i := range src {
		src[i] = buf[i*bs : (i+1)*bs]
		rng.Bytes(src[i])
		dst[i] = buf[(registry.BatchLanes+i)*bs : (registry.BatchLanes+i+1)*bs]
	}
	return inst, c.SBox(), dst, src, nil
}

// cipherTimingBlocks sizes one timing sample: enough blocks to amortise
// timer resolution on the sub-100ns bitsliced cores while keeping the
// slowest scalar core (PRESENT, microseconds per block) within tens of
// milliseconds.
const cipherTimingBlocks = 8192

// measureCipherCores times every registered cipher's encrypt core through
// the scalar path and through the full-width batch path, in registry order.
// Like the hammer timings the figures are host-dependent by nature; it is
// the scalar-to-bitsliced ratio that CI gates on.
func measureCipherCores() ([]CipherEntry, error) {
	names := registry.Names()
	out := make([]CipherEntry, 0, len(names))
	for _, name := range names {
		c, ok := registry.Get(name)
		if !ok {
			return nil, fmt.Errorf("bench: cipher %q vanished from the registry", name)
		}
		inst, table, dst, src, err := NewCipherCoreBench(c)
		if err != nil {
			return nil, fmt.Errorf("bench: cipher %q bench setup: %w", name, err)
		}
		batches := cipherTimingBlocks / registry.BatchLanes
		// Warm each path once so one-time setup stays out of the sample.
		registry.ScalarEncryptBatch(inst, table, dst, src)
		start := time.Now()
		for i := 0; i < batches; i++ {
			registry.ScalarEncryptBatch(inst, table, dst, src)
		}
		scalarNs := float64(time.Since(start).Nanoseconds()) / float64(batches*registry.BatchLanes)
		inst.EncryptBatch(table, dst, src)
		start = time.Now()
		for i := 0; i < batches; i++ {
			inst.EncryptBatch(table, dst, src)
		}
		bitslicedNs := float64(time.Since(start).Nanoseconds()) / float64(batches*registry.BatchLanes)
		out = append(out, CipherEntry{
			Cipher:                   name,
			ScalarNsPerEncryption:    scalarNs,
			BitslicedNsPerEncryption: bitslicedNs,
			Lanes:                    registry.BatchLanes,
		})
	}
	return out, nil
}

// checkCipherRows applies the bitsliced speedup gate to one set of
// cipher-core timing rows, logging one line per row to w: AES-128's
// table-heavy scalar path must be beaten at least 4x, and no cipher's
// batch path may be slower than its scalar path.  label distinguishes the
// checked-in rows from a live re-measure.
func checkCipherRows(w io.Writer, rows []CipherEntry, label string) error {
	var errs []error
	for _, e := range rows {
		ratio := e.ScalarNsPerEncryption / e.BitslicedNsPerEncryption
		floor := 1.0
		if e.Cipher == "aes-128" {
			floor = 4.0
		}
		status := "ok"
		if ratio < floor {
			status = "FAIL"
			errs = append(errs, fmt.Errorf("%s %s bitsliced speedup %.1fx is below its %.0fx floor", label, e.Cipher, ratio, floor))
		}
		fmt.Fprintf(w, "%-14s %s bitsliced speedup: %5.1fx (floor %.0fx) %s\n",
			e.Cipher, label, ratio, floor, status)
	}
	return errors.Join(errs...)
}
