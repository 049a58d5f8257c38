package microarray

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteTSV writes the matrix in the tab-separated layout microarray
// repositories use: a header row "gene<TAB>cond_1<TAB>...", then one row
// per gene with its identifier and expression values.
func WriteTSV(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprint(bw, "gene"); err != nil {
		return err
	}
	for c := 0; c < m.Conditions; c++ {
		if _, err := fmt.Fprintf(bw, "\tcond_%d", c+1); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw); err != nil {
		return err
	}
	for g := 0; g < m.Genes; g++ {
		name := fmt.Sprintf("gene_%d", g)
		if m.Names != nil && m.Names[g] != "" {
			name = m.Names[g]
		}
		if _, err := fmt.Fprint(bw, name); err != nil {
			return err
		}
		for c := 0; c < m.Conditions; c++ {
			if _, err := fmt.Fprintf(bw, "\t%g", m.Data[g][c]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTSV parses the layout written by WriteTSV.  All rows must have the
// same number of value columns, every value must be finite; the header
// row is required.
func ReadTSV(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("microarray: empty input")
	}
	header := strings.Split(sc.Text(), "\t")
	if len(header) < 2 {
		return nil, fmt.Errorf("microarray: header has no condition columns")
	}
	conditions := len(header) - 1

	var names []string
	var rows [][]float64
	line := 1
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) != conditions+1 {
			return nil, fmt.Errorf("microarray: line %d has %d columns, want %d",
				line, len(fields), conditions+1)
		}
		row := make([]float64, conditions)
		for i, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("microarray: line %d column %d: %v", line, i+2, err)
			}
			// ParseFloat accepts NaN and Inf; a correlation over either
			// is meaningless, and a NaN row still ranks into edges.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("microarray: line %d column %d: non-finite value %q", line, i+2, f)
			}
			row[i] = v
		}
		names = append(names, fields[0])
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	m := NewMatrix(len(rows), conditions)
	m.Names = names
	for g, row := range rows {
		copy(m.Data[g], row)
	}
	return m, nil
}
