package report

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// Cols builds unit-less columns from header names.
func Cols(names ...string) []Column {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = Column{Name: n}
	}
	return cols
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// List returns the stored ids, sorted: the test-side view of what Save
// leaves on disk.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("report: store list: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, ".json") {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, ".json"))
	}
	sort.Strings(ids)
	return ids, nil
}
