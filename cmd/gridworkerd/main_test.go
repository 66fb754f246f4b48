package main

import (
	"testing"

	"repro/internal/astro"
)

func TestParseRegion(t *testing.T) {
	got, err := parseRegion(" 193.9 :196.4:1.4: 3.6")
	if want := astro.MustBox(193.9, 196.4, 1.4, 3.6); err != nil || got != want {
		t.Fatalf("parseRegion = %+v, %v; want %+v", got, err, want)
	}
	for _, s := range []string{
		"196x:197:1:3", "196:197:1:3e", // trailing garbage
		"196:197:1", "196:197:1:3:4", "196::1:3", // wrong or empty fields
		"NaN:197:1:3", "196:NaN:1:3", "196:197:1:nan", // NaN edges
		"-Inf:197:1:3", "196:+Inf:1:3", "196:197:-Inf:3", // infinite edges
		"197:196:1:3", "196:197:-91:3", // empty ra range, dec beyond the pole
	} {
		if b, err := parseRegion(s); err == nil {
			t.Errorf("parseRegion(%q) = %+v, want an error", s, b)
		}
	}
}
