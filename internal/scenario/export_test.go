package scenario

// WithHammerMode sets the hammer strategy ("single-sided", "double-sided",
// "many-sided").
func WithHammerMode(mode string) Option { return func(s *Spec) { s.Hammer.Mode = mode } }

// WithEvictionSet sets a CacheProbe-kind scenario's lines per eviction
// set; apply it after WithProbe.
func WithEvictionSet(lines int) Option {
	return func(s *Spec) {
		if s.Probe == nil {
			s.Probe = &ProbeSpec{}
		}
		s.Probe.EvictionSet = lines
	}
}
