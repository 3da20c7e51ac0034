// Package mapfile reads and writes task-mapping files in the two formats
// Blue Gene/Q's runtime understands (§II-B "the MPI runtime allows for
// arbitrary task-to-node mappings that can be read from a file"):
//
//   - rank format: one topology node rank per line, indexed by MPI rank;
//   - coordinate format: one whitespace-separated coordinate tuple per
//     line, "A B C D E T" style — the torus coordinates followed by the
//     in-node slot.
//
// Lines starting with '#' are comments in both formats.
package mapfile

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"rahtm/internal/topology"
)

// WriteRanks writes the rank format (optionally with a header comment).
func WriteRanks(w io.Writer, m topology.Mapping, header string) error {
	bw := bufio.NewWriter(w)
	if header != "" {
		if _, err := fmt.Fprintf(bw, "# %s\n", header); err != nil {
			return err
		}
	}
	for _, node := range m {
		if _, err := fmt.Fprintln(bw, node); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadRanks parses the rank format. Node ranks are validated against t when
// t is non-nil.
func ReadRanks(r io.Reader, t *topology.Torus) (topology.Mapping, error) {
	var m topology.Mapping
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		v, err := strconv.Atoi(txt)
		if err != nil {
			return nil, fmt.Errorf("mapfile: line %d: bad rank %q", line, txt)
		}
		if v < 0 || (t != nil && v >= t.N()) {
			return nil, fmt.Errorf("mapfile: line %d: rank %d out of range", line, v)
		}
		m = append(m, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("mapfile: no mapping entries")
	}
	return m, nil
}

// WriteCoords writes the BG/Q coordinate format: for each MPI rank, the
// torus coordinates of its node followed by the in-node slot (the T value).
// Slots are assigned in rank order per node.
func WriteCoords(w io.Writer, t *topology.Torus, m topology.Mapping, header string) error {
	bw := bufio.NewWriter(w)
	if header != "" {
		if _, err := fmt.Fprintf(bw, "# %s\n", header); err != nil {
			return err
		}
	}
	slot := make(map[int]int, t.N())
	coord := make([]int, t.NumDims())
	for _, node := range m {
		if node < 0 || node >= t.N() {
			return fmt.Errorf("mapfile: node rank %d out of range", node)
		}
		coord = t.CoordOf(node, coord)
		parts := make([]string, 0, len(coord)+1)
		for _, c := range coord {
			parts = append(parts, strconv.Itoa(c))
		}
		parts = append(parts, strconv.Itoa(slot[node]))
		slot[node]++
		if _, err := fmt.Fprintln(bw, strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCoords parses the coordinate format against topology t; the trailing
// T column is allowed but ignored for the node rank (it orders processes
// within a node). Coordinates mean nothing without a topology, so a nil t
// is an error.
func ReadCoords(r io.Reader, t *topology.Torus) (topology.Mapping, error) {
	if t == nil {
		return nil, fmt.Errorf("mapfile: a coordinate file needs a topology")
	}
	var m topology.Mapping
	sc := bufio.NewScanner(r)
	line := 0
	nd := t.NumDims()
	coord := make([]int, nd)
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		fields := strings.Fields(txt)
		if len(fields) != nd && len(fields) != nd+1 {
			return nil, fmt.Errorf("mapfile: line %d: want %d or %d columns, got %d",
				line, nd, nd+1, len(fields))
		}
		for d := 0; d < nd; d++ {
			v, err := strconv.Atoi(fields[d])
			if err != nil {
				return nil, fmt.Errorf("mapfile: line %d: bad coordinate %q", line, fields[d])
			}
			if v < 0 || v >= t.Dim(d) {
				return nil, fmt.Errorf("mapfile: line %d: coordinate %d out of range [0,%d)", line, v, t.Dim(d))
			}
			coord[d] = v
		}
		m = append(m, t.RankOf(coord))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("mapfile: no mapping entries")
	}
	return m, nil
}

// Detect reads a mapping in either format, sniffing by column count.
func Detect(r io.Reader, t *topology.Torus) (topology.Mapping, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	cols := 0
	for _, line := range strings.Split(string(data), "\n") {
		txt := strings.TrimSpace(line)
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		cols = len(strings.Fields(txt))
		break
	}
	switch {
	case cols == 1:
		return ReadRanks(strings.NewReader(string(data)), t)
	case cols > 1:
		return ReadCoords(strings.NewReader(string(data)), t)
	}
	return nil, fmt.Errorf("mapfile: empty mapping file")
}
