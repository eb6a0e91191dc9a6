package main

import (
	"io"
	"strings"
	"testing"
)

// TestLoadRejectsOverriddenFlags pins that a flag whose value a -load bundle
// replaces is rejected by name instead of silently ignored, that the same
// flag stays accepted without -load, and that flags the bundle does not
// override stay accepted with it.
func TestLoadRejectsOverriddenFlags(t *testing.T) {
	parse := func(t *testing.T, cmd string, args ...string) error {
		t.Helper()
		c := &cliFlags{}
		fs := c.flagSet(cmd)
		fs.SetOutput(io.Discard)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("smore %s %v: %v", cmd, args, err)
		}
		return c.checkLoad(cmd, fs)
	}
	for _, tt := range []struct{ cmd, flag, value string }{
		{"eval", "dim", "512"},
		{"eval", "levels", "8"},
		{"eval", "ngram", "2"},
		{"stream", "dim", "512"},
		{"stream", "levels", "8"},
		{"stream", "ngram", "2"},
		{"stream", "retrain", "1"},
		{"stream", "adapt-epochs", "1"},
		{"stream", "confidence", "0.9"},
		{"stream", "rate", "0.01"},
	} {
		t.Run(tt.cmd+"/"+tt.flag, func(t *testing.T) {
			err := parse(t, tt.cmd, "-load", "m.smore", "-"+tt.flag, tt.value)
			if err == nil || !strings.Contains(err.Error(), "-"+tt.flag+" ") {
				t.Fatalf("smore %s -load m.smore -%s %s: err %v, want one naming -%s", tt.cmd, tt.flag, tt.value, err, tt.flag)
			}
			if tt.cmd == "stream" {
				if err := parse(t, tt.cmd, "-"+tt.flag, tt.value); err != nil {
					t.Fatalf("smore stream -%s %s without -load: %v", tt.flag, tt.value, err)
				}
			}
		})
	}
	for _, args := range [][]string{
		{"eval", "-load", "m.smore", "-seed", "7", "-sensors", "2", "-classes", "3", "-window", "16", "-per-class", "8", "-no-adapt"},
		{"stream", "-load", "m.smore", "-seed", "7", "-batch", "8", "-drift-policy", "spawn", "-strategy", "margin+constant+ema"},
	} {
		if err := parse(t, args[0], args[1:]...); err != nil {
			t.Fatalf("smore %v: %v", args, err)
		}
	}
}
