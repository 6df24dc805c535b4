package main

import (
	"path/filepath"
	"testing"

	"ceci/internal/graph"
)

func TestMakeGraphKinds(t *testing.T) {
	cases := []struct {
		name    string
		dataset string
		kind    string
		wantErr bool
	}{
		{"dataset", "wt_s", "", false},
		{"kronecker", "", "kronecker", false},
		{"chunglu", "", "chunglu", false},
		{"er", "", "er", false},
		{"missing", "", "", true},
		{"unknown", "", "nope", true},
	}
	for _, c := range cases {
		g, err := makeGraph(c.dataset, c.kind, 8, 4, 1000, 3000, 6, 2.3, 0, 1)
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: expected error", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if g.NumVertices() == 0 {
			t.Errorf("%s: empty graph", c.name)
		}
	}
}

func TestMakeGraphLabels(t *testing.T) {
	g, err := makeGraph("", "er", 0, 0, 500, 1500, 0, 0, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLabels() < 5 {
		t.Fatalf("labels = %d, want ~7", g.NumLabels())
	}
}

func TestWriteFormats(t *testing.T) {
	g, err := makeGraph("", "er", 0, 0, 50, 120, 0, 0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"g.lg", "g.edges"} {
		path := filepath.Join(dir, name)
		if err := write(g, path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g2, err := graph.LoadFile(path)
		if err != nil {
			t.Fatalf("%s reload: %v", name, err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: edges %d != %d", name, g2.NumEdges(), g.NumEdges())
		}
	}
}
