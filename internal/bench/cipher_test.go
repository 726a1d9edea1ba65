package bench

import (
	"io"
	"strings"
	"testing"
)

// The bitsliced speedup floor `benchtab -check-trajectory` enforces:
// AES-128 must be at least 4x faster bitsliced, every other cipher at
// least as fast as its scalar path.
func TestCheckCipherRowsSpeedupFloor(t *testing.T) {
	healthy := []CipherEntry{
		{Cipher: "aes-128", ScalarNsPerEncryption: 400, BitslicedNsPerEncryption: 100, Lanes: 64},
		{Cipher: "present-80", ScalarNsPerEncryption: 100, BitslicedNsPerEncryption: 100, Lanes: 64},
		{Cipher: "lilliput-80", ScalarNsPerEncryption: 900, BitslicedNsPerEncryption: 60, Lanes: 64},
	}
	if err := checkCipherRows(io.Discard, healthy, "recorded"); err != nil {
		t.Errorf("healthy rows rejected: %v", err)
	}

	cases := []struct {
		name string
		row  CipherEntry
		want string
	}{
		{"aes-128 at 3.9x", CipherEntry{Cipher: "aes-128", ScalarNsPerEncryption: 390, BitslicedNsPerEncryption: 100, Lanes: 64}, "aes-128"},
		{"present-80 at 0.9x", CipherEntry{Cipher: "present-80", ScalarNsPerEncryption: 90, BitslicedNsPerEncryption: 100, Lanes: 64}, "present-80"},
	}
	for _, tc := range cases {
		rows := append([]CipherEntry{}, healthy...)
		for i := range rows {
			if rows[i].Cipher == tc.row.Cipher {
				rows[i] = tc.row
			}
		}
		var log strings.Builder
		err := checkCipherRows(&log, rows, "live")
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want a failure naming %q", tc.name, err, tc.want)
		}
		if !strings.Contains(log.String(), "FAIL") {
			t.Errorf("%s: log does not mark the row FAIL:\n%s", tc.name, log.String())
		}
	}
}
