package aes

// Rounds returns the number of rounds (10 for AES-128).
func (s *Schedule) Rounds() int { return s.rounds }

// ShiftRowsIndex returns where ciphertext byte i takes its input from under
// the final-round ShiftRows.
func ShiftRowsIndex(i int) int { return shift[i] }
