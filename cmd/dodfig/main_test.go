package main

import (
	"io"
	"strings"
	"testing"
)

func TestRunSelectedFigure(t *testing.T) {
	var out strings.Builder
	if err := run(&out, []string{"4"}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "Fig. 4 —") || strings.Contains(out.String(), "Fig. 5") {
		t.Errorf("-fig 4 printed:\n%s", out.String())
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run(io.Discard, []string{"4", "99"}); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestFigListFlag(t *testing.T) {
	var f figList
	if err := f.Set("4"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("9a"); err != nil {
		t.Fatal(err)
	}
	if f.String() != "4,9a" {
		t.Errorf("String() = %q", f.String())
	}
}
