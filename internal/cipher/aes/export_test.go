package aes

// ShiftRowsIndex returns where ciphertext byte i takes its input from under
// the final-round ShiftRows.
func ShiftRowsIndex(i int) int { return shift[i] }
