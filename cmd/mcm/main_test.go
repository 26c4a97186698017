package main

import (
	"os"
	"path/filepath"
	"testing"

	"mcmdist/internal/core"
	"mcmdist/internal/distjob"
)

// TestLoadGraphSources pins the graph-source flags as mcm turns them into a
// job spec: exactly one of -in, -rmat and -matrix, case-insensitive R-MAT
// classes, and -in embedded as inline Matrix Market content.
func TestLoadGraphSources(t *testing.T) {
	load := func(in, rmatClass, matrix string) (int, int, error) {
		spec := &distjob.Spec{RMAT: rmatClass, Matrix: matrix, Scale: 6, Config: core.Config{Procs: 1, Seed: 1}}
		if err := readInput(spec, in); err != nil {
			return 0, 0, err
		}
		a, err := spec.BuildMatrix()
		if err != nil {
			return 0, 0, err
		}
		return a.NRows, a.NNZ(), nil
	}

	// Exactly one source required.
	if _, _, err := load("", "", ""); err == nil {
		t.Error("no source accepted")
	}
	path := filepath.Join(t.TempDir(), "g.mtx")
	content := "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := load(path, "er", ""); err == nil {
		t.Error("two sources accepted")
	}

	// RMAT classes.
	for _, class := range []string{"g500", "ssca", "er", "G500", "ER"} {
		rows, _, err := load("", class, "")
		if err != nil {
			t.Errorf("class %q: %v", class, err)
			continue
		}
		if rows != 64 {
			t.Errorf("class %q: %d rows", class, rows)
		}
	}
	if _, _, err := load("", "bogus", ""); err == nil {
		t.Error("unknown rmat class accepted")
	}

	// Table II stand-in.
	if _, nnz, err := load("", "", "road_usa"); err != nil || nnz == 0 {
		t.Fatalf("stand-in: %d edges, %v", nnz, err)
	}
	if _, _, err := load("", "", "nope"); err == nil {
		t.Error("unknown matrix accepted")
	}

	// Matrix Market file.
	if _, nnz, err := load(path, "", ""); err != nil || nnz != 2 {
		t.Fatalf("mtx load: %d edges, %v", nnz, err)
	}
	if _, _, err := load(filepath.Join(t.TempDir(), "missing.mtx"), "", ""); err == nil {
		t.Error("missing file accepted")
	}
}
