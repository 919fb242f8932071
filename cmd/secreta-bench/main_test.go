package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"secreta/internal/experiment"
	"secreta/internal/gen"
)

// TestAllExperimentsRun prints every paper experiment through the CLI on
// a small dataset, so each body in experiment.Paper runs under -race.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	env, err := experiment.NewEnv(gen.Config{Records: 120, Items: 16, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range experiment.Paper {
		t.Run(e.ID, func(t *testing.T) {
			var out bytes.Buffer
			ran, err := printExperiments(&out, env, strings.ToLower(e.ID))
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			header := fmt.Sprintf("=== %s: %s (n=120, seed=42)\n", e.ID, e.Brief)
			if ran != 1 || !strings.HasPrefix(out.String(), header) {
				t.Fatalf("ran %d, output starts %q, want 1 and %q", ran, out.String()[:min(len(header), out.Len())], header)
			}
		})
	}
	if ran, err := printExperiments(io.Discard, env, "E11"); ran != 0 || err != nil {
		t.Fatalf("unknown ID: ran %d, err %v", ran, err)
	}
}

func TestBenchListCoversE1ToE10(t *testing.T) {
	if len(experiment.Paper) != 10 {
		t.Fatalf("experiments = %d, want 10", len(experiment.Paper))
	}
	for i, e := range experiment.Paper {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Errorf("experiment %d id = %s, want %s", i, e.ID, want)
		}
	}
}
