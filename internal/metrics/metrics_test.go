package metrics

import (
	"strings"
	"testing"
)

func TestComma(t *testing.T) {
	cases := map[uint64]string{
		0:          "0",
		999:        "999",
		1000:       "1,000",
		16629760:   "16,629,760",
		1234567890: "1,234,567,890",
	}
	for in, want := range cases {
		if got := Comma(in); got != want {
			t.Errorf("Comma(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestTable(t *testing.T) {
	tab := NewTable("Resource", "OStore", "Texas")
	tab.Row("elapsed sec", "1.234", "1.500")
	tab.Row("size (bytes)", "16,629,760", "24,281,088")
	var b strings.Builder
	if err := tab.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Resource") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[3], "16,629,760") {
		t.Errorf("row = %q", lines[3])
	}
	// Numeric columns right-aligned: the two size cells end at the same
	// column as their headers' width allows.
	if len(lines[2]) > len(lines[3]) {
		t.Errorf("alignment off:\n%s", out)
	}
}
