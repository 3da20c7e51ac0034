package mapfile

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"rahtm/internal/topology"
)

func TestRankRoundTrip(t *testing.T) {
	m := topology.Mapping{3, 1, 0, 2, 3, 1}
	var buf bytes.Buffer
	if err := WriteRanks(&buf, m, "test header"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRanks(&buf, topology.NewTorus(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range m {
		if got[i] != m[i] {
			t.Fatalf("entry %d: %d != %d", i, got[i], m[i])
		}
	}
}

func TestCoordRoundTrip(t *testing.T) {
	tp := topology.NewTorus(4, 4, 2)
	m := topology.Mapping{0, 5, 31, 5, 16}
	var buf bytes.Buffer
	if err := WriteCoords(&buf, tp, m, "coords"); err != nil {
		t.Fatal(err)
	}
	// Two processes on node 5 must get distinct T slots.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 { // header + 5 entries
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	if lines[2] == lines[4] {
		t.Fatalf("duplicate node entries share a slot:\n%s", buf.String())
	}
	got, err := ReadCoords(strings.NewReader(buf.String()), tp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		if got[i] != m[i] {
			t.Fatalf("entry %d: %d != %d", i, got[i], m[i])
		}
	}
}

func TestReadCoordsWithoutT(t *testing.T) {
	tp := topology.NewTorus(2, 2)
	got, err := ReadCoords(strings.NewReader("0 1\n1 0\n"), tp)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("mapping = %v", got)
	}
}

func TestDetect(t *testing.T) {
	tp := topology.NewTorus(2, 2)
	m, err := Detect(strings.NewReader("# c\n2\n3\n"), tp)
	if err != nil || m[0] != 2 {
		t.Fatalf("rank detect: %v %v", m, err)
	}
	m, err = Detect(strings.NewReader("1 1 0\n0 0 0\n"), tp)
	if err != nil || m[0] != 3 {
		t.Fatalf("coord detect: %v %v", m, err)
	}
	if _, err := Detect(strings.NewReader("# only comments\n"), tp); err == nil {
		t.Fatal("empty file should fail")
	}
}

func TestReadErrors(t *testing.T) {
	tp := topology.NewTorus(2, 2)
	if _, err := ReadRanks(strings.NewReader("abc\n"), tp); err == nil {
		t.Fatal("bad rank should fail")
	}
	if _, err := ReadRanks(strings.NewReader("9\n"), tp); err == nil {
		t.Fatal("out-of-range rank should fail")
	}
	if _, err := ReadRanks(strings.NewReader(""), tp); err == nil {
		t.Fatal("empty should fail")
	}
	if _, err := ReadCoords(strings.NewReader("1\n"), tp); err == nil {
		t.Fatal("short row should fail")
	}
	if _, err := ReadCoords(strings.NewReader("5 0\n"), tp); err == nil {
		t.Fatal("out-of-range coord should fail")
	}
	if _, err := ReadCoords(strings.NewReader("a 0\n"), tp); err == nil {
		t.Fatal("bad coord should fail")
	}
	if err := WriteCoords(&bytes.Buffer{}, tp, topology.Mapping{99}, ""); err == nil {
		t.Fatal("bad node should fail on write")
	}
	// Ranks read without a topology; coordinates cannot.
	if m, err := Detect(strings.NewReader("3\n1\n"), nil); err != nil || len(m) != 2 {
		t.Fatalf("ranks without a topology: %v %v", m, err)
	}
	if _, err := Detect(strings.NewReader("0 0\n1 0\n"), nil); err == nil {
		t.Fatal("coordinates without a topology should fail")
	}
}

// FuzzMapFile reads arbitrary bytes as a map file for a 4x4x2 torus. Detect
// never panics, every node it accepts is in range, and writing the mapping
// in the rank format and detecting it again gives the same mapping.
func FuzzMapFile(f *testing.F) {
	tp := topology.NewTorus(4, 4, 2)
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := Detect(bytes.NewReader(in), tp)
		if err != nil {
			return
		}
		for p, node := range m {
			if node < 0 || node >= tp.N() {
				t.Fatalf("Detect(%q): rank %d on node %d of %d", in, p, node, tp.N())
			}
		}
		var buf bytes.Buffer
		if err := WriteRanks(&buf, m, "round trip"); err != nil {
			t.Fatal(err)
		}
		again, err := Detect(&buf, tp)
		if err != nil || !slices.Equal(again, m) {
			t.Fatalf("Detect(%q) = %v; its rank file reads back as %v (%v)", in, m, again, err)
		}
	})
}
