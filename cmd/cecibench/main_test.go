package main

import (
	"testing"
	"time"
)

func TestExperimentRegistry(t *testing.T) {
	want := []string{
		"table1", "table2", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "fig20",
	}
	if len(experiments) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(experiments), len(want))
	}
	for _, name := range want {
		e, ok := find(name)
		if !ok {
			t.Fatalf("missing experiment %s", name)
		}
		if e.run == nil || e.desc == "" {
			t.Fatalf("experiment %s incomplete", name)
		}
	}
	if _, ok := find("fig99"); ok {
		t.Fatal("phantom experiment found")
	}
}

func TestSpeedupFormatting(t *testing.T) {
	if got := speedup(2*time.Second, time.Second); got != "2.00x" {
		t.Fatalf("got %q", got)
	}
	if got := speedup(0, time.Second); got != "-" {
		t.Fatalf("zero base: %q", got)
	}
	if got := speedup(time.Second, 0); got != "-" {
		t.Fatalf("zero other: %q", got)
	}
}

func TestRunBudget(t *testing.T) {
	if runBudget(benchConfig{quick: true}) >= runBudget(benchConfig{}) {
		t.Fatal("quick budget should be smaller")
	}
}

// TestTable1Smoke runs the cheapest experiment end to end.
func TestTable1Smoke(t *testing.T) {
	if err := runTable1(benchConfig{quick: true}); err != nil {
		t.Fatal(err)
	}
}
