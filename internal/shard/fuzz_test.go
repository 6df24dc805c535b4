package shard

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ceci/internal/gen"
)

// savedShard0 partitions the Figure 1 data graph three ways and returns
// the bytes Save wrote for shard 0: manifest.json, its map, its graph.
func savedShard0(tb testing.TB) (manifest, vmap, lg []byte) {
	data := gen.Fig1Data()
	parts, err := Split(data, PartitionOptions{Shards: 3, Radius: 1})
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	if _, err := Save(dir, data, parts, false); err != nil {
		tb.Fatal(err)
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	return read("manifest.json"), read("shard-0.map"), read("shard-0.lg")
}

// FuzzLoadPart: the manifest directory is the fleet's only on-disk
// format, so its three files are hostile bytes. LoadPart returns an
// error, or a partition a shard can serve — one global id per graph
// vertex, strictly ascending, owned locals ascending and in range — and
// either way allocates in proportion to the bytes it was given.
func FuzzLoadPart(f *testing.F) {
	// Live Save output and truncations of it; the hostile variants (escaping
	// names, wrong counts, huge ids) are in testdata/fuzz/FuzzLoadPart.
	manifest, vmap, lg := savedShard0(f)
	f.Add(manifest, vmap, lg)
	f.Add(manifest[:len(manifest)/2], vmap, lg)
	f.Add(manifest, vmap[:len(vmap)/2], lg)
	f.Add(manifest, vmap, lg[:len(lg)/2])
	f.Fuzz(func(t *testing.T, manifest, vmap, lg []byte) {
		dir := t.TempDir()
		for name, b := range map[string][]byte{"manifest.json": manifest, "shard-0.map": vmap, "shard-0.lg": lg} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// 1 MiB is the graph file's read buffer; the rest scales with input.
		budget := uint64(1<<20 + 256<<10 + 512*(len(manifest)+len(vmap)+len(lg)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := LoadPart(dir, 0)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Fatalf("loading %d+%d+%d bytes allocated %d, budget %d", len(manifest), len(vmap), len(lg), got, budget)
		}
		if err != nil {
			return
		}
		n := p.Graph.NumVertices()
		if len(p.Globals) != n {
			t.Fatalf("%d globals for %d vertices", len(p.Globals), n)
		}
		for i := 1; i < n; i++ {
			if p.Globals[i] <= p.Globals[i-1] {
				t.Fatalf("globals[%d] = %d after %d: not strictly ascending", i, p.Globals[i], p.Globals[i-1])
			}
		}
		if len(p.OwnedLocals) == 0 || p.Shards < 1 || p.Radius < 0 {
			t.Fatalf("accepted a partition nobody can serve: %d owned, %d shards, radius %d", len(p.OwnedLocals), p.Shards, p.Radius)
		}
		for i, lv := range p.OwnedLocals {
			if int(lv) >= n || (i > 0 && lv <= p.OwnedLocals[i-1]) {
				t.Fatalf("ownedLocals[%d] = %d: out of range [0,%d) or not ascending", i, lv, n)
			}
		}
	})
}
