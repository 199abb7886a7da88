package export

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Table III", "Thread pool", "baseline", "preliminary")
	tb.AddRow("HTTP", 40, 54)
	tb.AddRow("User response time", 2.657, 2.484)
	out := tb.String()
	if !strings.Contains(out, "Table III") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "2.657") || !strings.Contains(out, "2.484") {
		t.Errorf("values missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// Columns aligned: header and separator same length.
	if len(lines[1]) != len(lines[2]) {
		t.Error("separator not aligned with header")
	}
}

func TestTableRenderRaggedRow(t *testing.T) {
	// A row with more cells than the header used to panic in Render
	// (line() indexed widths[i] unguarded); ragged rows must render.
	tb := NewTable("ragged", "a", "b")
	tb.AddRow("x", "y")
	tb.AddRow("x", "y", "overflow", "more")
	tb.AddRow("short")
	out := tb.String()
	if !strings.Contains(out, "overflow") || !strings.Contains(out, "more") {
		t.Errorf("extra cells missing:\n%s", out)
	}
	if !strings.Contains(out, "short") {
		t.Errorf("short row missing:\n%s", out)
	}
}

func TestTableCSVRaggedRow(t *testing.T) {
	tb := NewTable("ragged", "a", "b")
	tb.AddRow("x", "y", "overflow")
	tb.AddRow("only")
	path := filepath.Join(t.TempDir(), "ragged.csv")
	if err := tb.WriteCSV(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Ragged rows are padded to a common width, so the default strict
	// reader (FieldsPerRecord inferred from the header) must accept the
	// file.
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || len(rows[0]) != 3 || rows[1][2] != "overflow" ||
		rows[2][0] != "only" || rows[2][2] != "" {
		t.Errorf("csv = %v", rows)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow(1, "x")
	tb.AddRow(2.5, "y")
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := tb.WriteCSV(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0] != "a" || rows[1][0] != "1" || rows[2][1] != "y" {
		t.Errorf("csv = %v", rows)
	}
}
