package main

import (
	"flag"
	"testing"

	"fgcs/internal/flagdoc"
	"fgcs/internal/fleetsim"
)

var update = flag.Bool("update", false, "rewrite the fleetsim flag table in README.md")

// TestFlagTable holds README's fleetsim table to the registered flags
// (-update rewrites it).
func TestFlagTable(t *testing.T) {
	fs := flag.NewFlagSet("fleetsim", flag.ContinueOnError)
	registerFlags(fs, &fleetsim.Config{}, &output{})
	flagdoc.Check(t, "../../README.md", "fleetsim", flagdoc.Table(nil, fs), *update)
}
