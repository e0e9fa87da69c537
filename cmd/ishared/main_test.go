package main

import (
	"flag"
	"testing"

	"fgcs/internal/flagdoc"
)

var update = flag.Bool("update", false, "rewrite the ishared flag table in README.md")

// TestFlagTable holds README's ishared table to the registered flags (-update
// rewrites it). -id's default, the host's name, reads as a fixed word.
func TestFlagTable(t *testing.T) {
	fs := flag.NewFlagSet("ishared", flag.ContinueOnError)
	registerFlags(fs, &runConfig{}, "<hostname>")
	flagdoc.Check(t, "../../README.md", "ishared", flagdoc.Table(nil, fs), *update)
}
