package machine

import (
	"fmt"
	"sort"
	"strings"
)

// Get looks a built-in machine up by name, case-insensitively.
func Get(name string) (Spec, bool) {
	key := strings.ToLower(name)
	for _, s := range builtins {
		if strings.ToLower(s.Name) == key {
			return s, true
		}
	}
	return Spec{}, false
}

// MustGet is Get for built-in-by-construction names; it panics on a miss.
func MustGet(name string) Spec {
	s, ok := Get(name)
	if !ok {
		panic(fmt.Sprintf("machine: unknown machine %q", name))
	}
	return s
}

// Names returns the name of every built-in machine (original spelling),
// sorted case-insensitively.
func Names() []string {
	out := make([]string, 0, len(builtins))
	for _, s := range builtins {
		out = append(out, s.Name)
	}
	sort.Slice(out, func(i, j int) bool { return strings.ToLower(out[i]) < strings.ToLower(out[j]) })
	return out
}
