package lilliput

// KeyBytes is the master key length in bytes (80 bits).
const KeyBytes = 10
