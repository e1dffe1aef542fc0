package report

import (
	"strings"
	"testing"
)

func TestTableAlignmentAndTypes(t *testing.T) {
	tbl := NewTable("Demo", "name", "value", "note")
	tbl.Add("a", 12.5, "x")
	tbl.Add("bcd", 3.14159, "y")
	tbl.Add("e", 1000000.0, "z")
	out := tbl.String()
	if !strings.Contains(out, "## Demo") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, sep, 3 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "12.5") || !strings.Contains(out, "3.14") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
	if !strings.Contains(out, "1000000") {
		t.Fatalf("integral float should print as integer:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		42:      "42",
		1234.5:  "1234", // %.0f rounds half to even
		12.34:   "12.3",
		0.5:     "0.50",
		0.01234: "0.0123",
		-3:      "-3",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestCSVEscaping(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.Add("x,y", `say "hi"`)
	var sb strings.Builder
	tbl.CSV(&sb)
	out := sb.String()
	if !strings.Contains(out, `"x,y"`) || !strings.Contains(out, `"say ""hi"""`) {
		t.Fatalf("csv escaping wrong: %s", out)
	}
}

func TestJSONDeterministicAndIndented(t *testing.T) {
	type row struct {
		Name string  `json:"name"`
		V    float64 `json:"v"`
	}
	in := []row{{"a", 1.5}, {"b", 2}}
	s1, err := JSONString(in)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := JSONString(in)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("JSONString not deterministic")
	}
	if !strings.Contains(s1, "\n  {") || !strings.HasSuffix(s1, "\n") {
		t.Fatalf("unexpected JSON shape:\n%s", s1)
	}
	var sb strings.Builder
	if err := JSON(&sb, map[string]int{"z": 1, "a": 2}); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "{\n  \"a\": 2,\n  \"z\": 1\n}\n" {
		t.Fatalf("map keys not sorted: %q", sb.String())
	}
}
