package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// readOracle is the map-backed parser Read replaced: it accumulates the
// lines into the map oracle one by one, with the standard library's
// splitting and number parsing. It survives only as the reference of the
// differential tests below.
func readOracle(r io.Reader) (*mapOracle, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("graph: empty input")
	}
	n, err := ReadHeader(sc.Text())
	if err != nil {
		return nil, err
	}
	o := newMapOracle(n)
	line := 1
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		fields := strings.Fields(txt)
		if fields[0] == "comm" {
			return nil, fmt.Errorf("graph: line %d: duplicate header %q", line, txt)
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: want 'src dst vol', got %q", line, txt)
		}
		s, err1 := strconv.Atoi(fields[0])
		d, err2 := strconv.Atoi(fields[1])
		v, err3 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("graph: line %d: parse error in %q", line, txt)
		}
		if s < 0 || s >= n || d < 0 || d >= n {
			return nil, fmt.Errorf("graph: line %d: vertex out of range in %q", line, txt)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("graph: line %d: non-finite volume in %q", line, txt)
		}
		o.add(s, d, v)
	}
	return o, sc.Err()
}

// requireReadMatchesOracle fails unless Read and readOracle agree on in:
// the same error text, or the oracle's CSR rows, volume bits and
// structural hash.
func requireReadMatchesOracle(t *testing.T, in []byte) {
	t.Helper()
	got, err := Read(bytes.NewReader(in))
	want, werr := readOracle(bytes.NewReader(in))
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("Read(%q): error %v, oracle %v", in, err, werr)
	}
	if err != nil {
		return
	}
	requireSameCSR(t, fmt.Sprintf("Read(%q)", in), got, want.comm())
}

// pick returns one of xs at random.
func pick(rng *rand.Rand, xs ...string) string { return xs[rng.Intn(len(xs))] }

// genGraphText writes a random input in or near the WriteTo format:
// duplicate pairs (adjacent and not), self-loops, zero and negative
// volumes, comments, blank lines, CRLF, tabs and Unicode spaces, and every
// number spelling Atoi and ParseFloat accept. A dirty input may also hold
// lines Read rejects: duplicate headers, out-of-range vertices, bad field
// counts and unparsable or non-finite numbers.
func genGraphText(rng *rand.Rand, dirty bool) []byte {
	n := 1 + rng.Intn(12)
	sep := func() string {
		return pick(rng, " ", " ", " ", "\t", "  ", " \t ", "\v", "\f", "\u00a0", "\u0085")
	}
	pad := func() string {
		if rng.Intn(6) == 0 {
			return sep()
		}
		return ""
	}
	eol := func() string { return pick(rng, "\n", "\n", "\r\n") }
	vertex := func() string {
		v := rng.Intn(n)
		if dirty && rng.Intn(25) == 0 {
			return pick(rng, "-1", strconv.Itoa(n), "x", "1.0",
				"9999999999999999999", "9223372036854775807", "-9223372036854775808")
		}
		switch rng.Intn(12) {
		case 0:
			return "+" + strconv.Itoa(v)
		case 1:
			return "0" + strconv.Itoa(v)
		case 2:
			return fmt.Sprintf("%019d", v) // past Atoi's fast path
		case 3:
			if v == 0 {
				return "-0"
			}
		}
		return strconv.Itoa(v)
	}
	volume := func() string {
		if dirty && rng.Intn(25) == 0 {
			return pick(rng, "NaN", "inf", "-Inf", "1e400", "abc", "1_0", "--1", "0x")
		}
		switch rng.Intn(14) {
		case 0:
			return pick(rng, "0", "-0", "-3", "0.0")
		case 1:
			return "00" + strconv.Itoa(1+rng.Intn(99))
		case 2:
			return "+" + strconv.Itoa(1+rng.Intn(99))
		case 3:
			return strconv.FormatFloat(rng.Float64()*100, 'g', -1, 64)
		case 4:
			return pick(rng, "1e2", "2.5E-1", "1E+3", "3e0", ".5", "5.", "0x1p-2", "0x1.8p1")
		case 5:
			// 15 digits stay on the direct path, 16 or more do not.
			return strconv.FormatInt(rng.Int63n(1e15), 10) + strings.Repeat("7", rng.Intn(5))
		case 6:
			return pick(rng, "999999999999999", "1000000000000000", "000000000000001", "12345678901234567890123")
		case 7:
			return strconv.FormatFloat(math.Ldexp(1+rng.Float64(), rng.Intn(60)-30), 'e', -1, 64)
		}
		return strconv.Itoa(1 + rng.Intn(9))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%scomm%s%d%s%s", pad(), sep(), n, pad(), eol())
	var pairs [][2]string
	lines := rng.Intn(40)
	for i := 0; i < lines; i++ {
		switch r := rng.Intn(24); {
		case r == 0:
			b.WriteString(pad())
		case r == 1:
			fmt.Fprintf(&b, "%s#%scomment %d", pad(), pad(), i)
		case r == 2 && dirty:
			fmt.Fprintf(&b, "comm%s%d", sep(), n)
		case r == 3 && dirty:
			fmt.Fprintf(&b, "%s%s%s", vertex(), sep(), vertex())
		case r == 4 && dirty:
			fmt.Fprintf(&b, "%s%s%s%s%s%s1", vertex(), sep(), vertex(), sep(), volume(), sep())
		default:
			var p [2]string
			switch {
			case len(pairs) > 0 && rng.Intn(3) == 0:
				p = pairs[len(pairs)-1] // adjacent duplicate
			case len(pairs) > 0 && rng.Intn(3) == 0:
				p = pairs[rng.Intn(len(pairs))]
			case rng.Intn(10) == 0:
				v := strconv.Itoa(rng.Intn(n))
				p = [2]string{v, v} // self-loop
			default:
				p = [2]string{vertex(), vertex()}
			}
			pairs = append(pairs, p)
			fmt.Fprintf(&b, "%s%s%s%s%s%s%s", pad(), p[0], sep(), p[1], sep(), volume(), pad())
		}
		if i < lines-1 || rng.Intn(2) == 0 {
			b.WriteString(eol())
		}
	}
	return []byte(b.String())
}

// TestReadMatchesOracle checks Read against the map-backed parser it
// replaced on generated inputs: the same error, or the same rows, volume
// bits and structural hash.
func TestReadMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	accepted := 0
	for i := 0; i < 4000; i++ {
		in := genGraphText(rng, i%4 == 3)
		requireReadMatchesOracle(t, in)
		if _, err := Read(bytes.NewReader(in)); err == nil {
			accepted++
		}
	}
	// Most clean inputs must parse, or the bitwise comparison checks little.
	if accepted < 2500 {
		t.Fatalf("only %d of 4000 generated inputs parsed", accepted)
	}
}

// FuzzGraphRead checks Read against readOracle on arbitrary bytes. An input
// whose header names more than 4096 vertices is skipped: both parsers
// allocate per vertex, so that size lies in the number, not in the bytes.
func FuzzGraphRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		header, _, _ := bytes.Cut(in, []byte("\n"))
		if n, err := ReadHeader(string(header)); err == nil && n > 1<<12 {
			t.Skip("header names too many vertices")
		}
		requireReadMatchesOracle(t, in)
	})
}
