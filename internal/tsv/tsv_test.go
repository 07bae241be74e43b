package tsv

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
)

// readers yields content through every shape of reader the loaders hand
// ReadAll: a regular file (pre-sized from Stat, so the buffer is exact),
// an in-memory reader (no size hint), one that returns a byte at a time
// (short reads), and one that delivers its last bytes together with EOF.
func readers(t *testing.T, content []byte) map[string]io.Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.tsv")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return map[string]io.Reader{
		"file":      f,
		"memory":    bytes.NewReader(content),
		"one byte":  iotest.OneByteReader(bytes.NewReader(content)),
		"data+EOF":  iotest.DataErrReader(bytes.NewReader(content)),
		"half read": iotest.HalfReader(bytes.NewReader(content)),
	}
}

func TestReadAll(t *testing.T) {
	sizes := []int{0, 1, 511, 512, 513, 32 << 10, 100_000} // around the 512-byte slack and the 32 KiB chunk
	for _, size := range sizes {
		content := bytes.Repeat([]byte("0123456789abcdef"), size/16+1)[:size]
		for name, r := range readers(t, content) {
			got, err := ReadAll(r)
			if err != nil || !bytes.Equal(got, content) {
				t.Errorf("ReadAll %s size %d: %d bytes, err %v", name, size, len(got), err)
			}
		}
		for name, r := range readers(t, content) {
			got, err := ReadAllString(r)
			if err != nil || got != string(content) {
				t.Errorf("ReadAllString %s size %d: %d bytes, err %v", name, size, len(got), err)
			}
		}
	}
}

func TestReadAllError(t *testing.T) {
	boom := errors.New("boom")
	broken := func() io.Reader {
		return io.MultiReader(strings.NewReader("partial"), iotest.ErrReader(boom))
	}
	if got, err := ReadAll(broken()); !errors.Is(err, boom) || got != nil {
		t.Errorf("ReadAll = %q, %v; want nil and the read error", got, err)
	}
	if got, err := ReadAllString(broken()); !errors.Is(err, boom) || got != "" {
		t.Errorf("ReadAllString = %q, %v; want empty and the read error", got, err)
	}
}

func TestLines(t *testing.T) {
	type line struct {
		text string
		no   int
	}
	cases := []struct {
		name string
		data string
		want []line
	}{
		{"empty", "", nil},
		{"terminated", "a\tb\nc\n", []line{{"a\tb", 1}, {"c", 2}}},
		{"unterminated last line", "a\nb", []line{{"a", 1}, {"b", 2}}},
		{"CRLF", "a\r\nb\r\n", []line{{"a", 1}, {"b", 2}}},
		{"blank lines keep their numbers", "a\n\n  \nb\n", []line{{"a", 1}, {"", 2}, {"", 3}, {"b", 4}}},
		{"surrounding space trimmed", "  a b \t\n", []line{{"a b", 1}}},
	}
	for _, tc := range cases {
		l := NewLines(tc.data)
		var got []line
		for {
			text, no, ok := l.Next()
			if !ok {
				break
			}
			got = append(got, line{text, no})
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d lines %q, want %d", tc.name, len(got), got, len(tc.want))
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: line %d = %+v, want %+v", tc.name, i, got[i], tc.want[i])
			}
		}
		if _, _, ok := l.Next(); ok {
			t.Errorf("%s: Next after the end reported a line", tc.name)
		}
	}
}

func TestSplitFields(t *testing.T) {
	cases := []struct {
		name  string
		line  string
		n     int
		want  []string // the stored prefix of dst
		count int
	}{
		{"exact", "a\tb\tc", 3, []string{"a", "b", "c"}, 3},
		{"fewer than dst", "a\tb", 4, []string{"a", "b"}, 2},
		{"more than dst", "a\tb\tc\td\te", 3, []string{"a", "b", "c"}, 5},
		{"empty fields", "\t\t", 3, []string{"", "", ""}, 3},
		{"empty line is one empty field", "", 2, []string{""}, 1},
		{"no room at all", "a\tb", 0, nil, 2},
	}
	for _, tc := range cases {
		dst := make([]string, tc.n)
		got := SplitFields(tc.line, dst)
		if got != tc.count {
			t.Errorf("%s: count %d, want %d", tc.name, got, tc.count)
		}
		for i, w := range tc.want {
			if dst[i] != w {
				t.Errorf("%s: field %d = %q, want %q", tc.name, i, dst[i], w)
			}
		}
	}
}
