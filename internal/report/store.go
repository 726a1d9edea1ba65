package report

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Store persists rendered tables as JSON files under one directory — the
// same wire shape as docs/results.json, so everything that reads the
// results book reads service-persisted campaign tables too.  Saves are
// atomic (write-to-temp then rename), and every load runs the table back
// through FromJSON's validation, so a corrupt file fails loudly instead of
// feeding a malformed table downstream.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) the store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("report: store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("report: store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// path maps an id onto its file, rejecting ids that would escape the store.
func (s *Store) path(id string) (string, error) {
	if id == "" || strings.ContainsAny(id, "/\\") || id == "." || id == ".." {
		return "", fmt.Errorf("report: store id %q is not a plain name", id)
	}
	return filepath.Join(s.dir, id+".json"), nil
}

// Save persists t under id, atomically replacing any previous table.
func (s *Store) Save(id string, t *Table) error {
	path, err := s.path(id)
	if err != nil {
		return err
	}
	data, err := JSON(t)
	if err != nil {
		return fmt.Errorf("report: store save %q: %w", id, err)
	}
	tmp, err := os.CreateTemp(s.dir, "."+id+".tmp-*")
	if err != nil {
		return fmt.Errorf("report: store save %q: %w", id, err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("report: store save %q: %w", id, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("report: store save %q: %w", id, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("report: store save %q: %w", id, err)
	}
	return nil
}

// Load reads the table stored under id back through FromJSON validation.
func (s *Store) Load(id string) (*Table, error) {
	data, err := s.LoadBytes(id)
	if err != nil {
		return nil, err
	}
	t, err := FromJSON(data)
	if err != nil {
		return nil, fmt.Errorf("report: store load %q: %w", id, err)
	}
	return t, nil
}

// LoadBytes reads the stored JSON verbatim — the byte-identity surface the
// resume tests compare.
func (s *Store) LoadBytes(id string) ([]byte, error) {
	path, err := s.path(id)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("report: store load %q: %w", id, err)
	}
	return data, nil
}
