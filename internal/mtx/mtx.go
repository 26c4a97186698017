// Package mtx reads and writes sparse matrices in the Matrix Market exchange
// format, the format used by the University of Florida (SuiteSparse) matrix
// collection from which the paper draws its real-world test set (Table II).
//
// Supported headers: "matrix coordinate" with field pattern/real/integer and
// symmetry general/symmetric. Values of real/integer matrices are discarded:
// the matching algorithms operate on the nonzero pattern only. Symmetric
// matrices are expanded (both (i,j) and (j,i) are materialized), matching how
// the paper treats symmetric inputs as bipartite row/column vertex sets.
package mtx

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mcmdist/internal/spmat"
)

// header holds the parsed %%MatrixMarket banner.
type header struct {
	object   string
	format   string
	field    string
	symmetry string
}

func parseHeader(line string) (header, error) {
	fields := strings.Fields(strings.ToLower(line))
	if len(fields) != 5 || fields[0] != "%%matrixmarket" {
		return header{}, fmt.Errorf("mtx: malformed banner %q", line)
	}
	h := header{object: fields[1], format: fields[2], field: fields[3], symmetry: fields[4]}
	if h.object != "matrix" {
		return h, fmt.Errorf("mtx: unsupported object %q", h.object)
	}
	if h.format != "coordinate" {
		return h, fmt.Errorf("mtx: unsupported format %q (only coordinate)", h.format)
	}
	switch h.field {
	case "pattern", "real", "integer":
	default:
		return h, fmt.Errorf("mtx: unsupported field %q", h.field)
	}
	switch h.symmetry {
	case "general", "symmetric":
	default:
		return h, fmt.Errorf("mtx: unsupported symmetry %q", h.symmetry)
	}
	return h, nil
}

// Read parses a Matrix Market stream into a CSC pattern matrix.
func Read(r io.Reader) (*spmat.CSC, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)

	if !sc.Scan() {
		return nil, fmt.Errorf("mtx: empty input")
	}
	h, err := parseHeader(sc.Text())
	if err != nil {
		return nil, err
	}

	// Skip comments, find the size line.
	var nrows, ncols, nnz int
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("mtx: missing size line")
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &nrows, &ncols, &nnz); err != nil {
			return nil, fmt.Errorf("mtx: bad size line %q: %v", line, err)
		}
		break
	}
	if nrows < 0 || ncols < 0 || nnz < 0 {
		return nil, fmt.Errorf("mtx: negative size %d %d %d", nrows, ncols, nnz)
	}
	if h.symmetry == "symmetric" && nrows != ncols {
		// The mirrored entry (j,i) of an in-range (i,j) is only in range
		// when the matrix is square, as the format requires.
		return nil, fmt.Errorf("mtx: symmetric matrix of size %dx%d is not square", nrows, ncols)
	}

	coo := spmat.NewCOO(nrows, ncols)
	coo.Entries = make([]spmat.Triple, 0, nnz)
	seen := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("mtx: bad entry line %q", line)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("mtx: bad row index %q: %v", fields[0], err)
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("mtx: bad column index %q: %v", fields[1], err)
		}
		if i < 1 || i > nrows || j < 1 || j > ncols {
			return nil, fmt.Errorf("mtx: entry (%d,%d) outside %dx%d", i, j, nrows, ncols)
		}
		if h.field != "pattern" && len(fields) < 3 {
			return nil, fmt.Errorf("mtx: missing value on line %q", line)
		}
		coo.Add(i-1, j-1)
		if h.symmetry == "symmetric" && i != j {
			coo.Add(j-1, i-1)
		}
		seen++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mtx: read: %w", err)
	}
	if seen != nnz {
		return nil, fmt.Errorf("mtx: expected %d entries, read %d", nnz, seen)
	}
	return coo.ToCSC(), nil
}

// ReadFile reads a Matrix Market file from disk.
func ReadFile(path string) (*spmat.CSC, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Write serializes m as a general pattern coordinate matrix.
func Write(w io.Writer, m *spmat.CSC) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate pattern general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.NRows, m.NCols, m.NNZ()); err != nil {
		return err
	}
	for j := 0; j < m.NCols; j++ {
		for _, i := range m.Col(j) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", i+1, j+1); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFile writes m to path in Matrix Market format.
func WriteFile(path string, m *spmat.CSC) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
