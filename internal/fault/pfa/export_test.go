package pfa

// Missing returns the values never observed at cell position i, in
// ascending order: the explicit set behind Unseen, which the oracle tests
// check candidate recovery against.
func (c *Collector) Missing(i int) []byte {
	var out []byte
	for v, n := range c.count[i] {
		if n == 0 {
			out = append(out, byte(v))
		}
	}
	return out
}
