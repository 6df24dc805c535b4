package ceci_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"ceci"
	"ceci/internal/gen"
)

// The files under testdata/ these tests read were written by commit
// d2fbab6 — the last with five counter stores behind searcher.drain — and
// are not regenerated for a change to how work is stored (the EXPLAIN
// ANALYZE tables are 270 KB each of mostly histogram bounds, hence gzip):
// whatever stores the enumeration's work, EXPLAIN ANALYZE and the Final
// Progress report must print these bytes. Two edits to what d2fbab6
// printed, both for deleted mechanisms: the kernels table's label_pruned
// column, 0 in every row, is cut with the prune it counted; and the
// EXPLAIN files were rewritten when the bitset kernel went — its calls
// are the probe kernel's now, so the kernel-mix rows, the scanned totals
// and the 1-worker peak-scratch line (1 KiB of chunk builders a depth)
// moved and nothing else did (EXPERIMENTS §PR 24 has the diff).
// Both files were rewritten again when a narrow vertex's arena became two
// bytes a value: every flat_bytes field of a vertex with values fell, and
// 21 of the 57 1-worker peak-scratch lines grew by the buffer a count-only
// run widens a tree-only vertex's TE list into (EXPERIMENTS.md, "Two-byte
// arenas"). They were rewritten once more when the product count of two
// trailing independent vertices was deleted: on the 21 golden pairs that
// took it, the recursive calls, the 1-worker peak scratch, the last two
// depths' step rows, the candidate-size histogram and the 4-worker FGD
// unit and split lines moved, and nothing else did (EXPERIMENTS.md,
// "Core rent check"). They were rewritten a fifth time when the histogram
// count began to form a correction term only where the sharing rule
// (enum's Matcher.canShare) lets its two sets meet, and to charge Z∩U's
// merge only the elements it walks: in both files the eliminated depth's
// comparisons and ratio moved on two pairs — sparse-QG2's u0 808 → 542
// (1 worker) and 864 → 598 (4 workers), where Z is no longer walked for
// Z∩U, and sparse-QG4's u3 41 → 15 — and nothing else did
// (EXPERIMENTS.md, "Injectivity only where two vertices can share").

// explainGolden renders, per golden pair, the canonical profile as one
// JSON line and the EXPLAIN ANALYZE text with its timings stripped.
func explainGolden(t *testing.T, workers int) string {
	t.Helper()
	var b strings.Builder
	gen.ForEachGoldenPair(func(name string, data, query *ceci.Graph, _ int64) {
		rep, err := ceci.ExplainAnalyze(data, query, &ceci.Options{Workers: workers})
		if err != nil {
			t.Fatalf("%s: ExplainAnalyze: %v", name, err)
		}
		canon, err := json.Marshal(rep.Profile.Canonical())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "### %s\n%s\n%s\n", name, canon, stripTimings(rep.Text(), workers))
	})
	return b.String()
}

// stripTimings removes what a clock or the scheduler decides from an
// EXPLAIN ANALYZE report: the build/enumerate line, the workers table's
// busy/idle/util columns and which worker ran how many units (the unit
// total stays), phase durations, and the ledger's CPU time — plus, with
// more than one worker, its peak scratch, which depends on who ran what.
func stripTimings(text string, workers int) string {
	var out []string
	section := ""
	var units int64
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			section = line
		case line == "":
			if section == "== workers ==" {
				out = append(out, fmt.Sprintf("units %d", units))
			}
			section = ""
		case strings.HasPrefix(line, "build: "):
			line = "build: -  enumerate: -"
		case section == "== workers ==":
			f := strings.Fields(line)
			if n, err := strconv.ParseInt(f[len(f)-1], 10, 64); err == nil {
				units += n
				line = "worker " + f[0]
			}
		case section == "== phases ==":
			line = strings.Fields(line)[0]
		case strings.HasPrefix(line, "  enum cpu:"),
			workers > 1 && strings.HasPrefix(line, "  peak scratch:"):
			line = line[:strings.Index(line, ":")+1]
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// progressGolden renders the Final progress report of a 1-worker run of
// every golden pair, clock-derived fields zeroed.
func progressGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	gen.ForEachGoldenPair(func(name string, data, query *ceci.Graph, _ int64) {
		var final ceci.Progress
		m, err := ceci.Match(data, query, &ceci.Options{
			Workers:          1,
			ProgressInterval: time.Hour,
			Progress: func(p ceci.Progress) {
				if p.Final {
					final = p
				}
			},
		})
		if err != nil {
			t.Fatalf("%s: Match: %v", name, err)
		}
		m.Count()
		if !final.Final {
			t.Fatalf("%s: no Final report", name)
		}
		final.Elapsed, final.EmbeddingsPerSec, final.ETA = 0, 0, 0
		clear(final.WorkerBusy)
		line, err := json.Marshal(final)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%s\t%s\n", name, line)
	})
	return b.String()
}

func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err == nil && strings.HasSuffix(file, ".gz") {
		var zr *gzip.Reader
		if zr, err = gzip.NewReader(bytes.NewReader(raw)); err == nil {
			raw, err = io.ReadAll(zr)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got %s\nwant %s", file, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, golden has %d", file, len(gl), len(wl))
}

func TestExplainAnalyzeGolden(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			checkGolden(t, fmt.Sprintf("testdata/explain_golden_w%d.txt.gz", workers), explainGolden(t, workers))
		})
	}
}

func TestProgressFinalGolden(t *testing.T) {
	checkGolden(t, "testdata/progress_final_golden.tsv", progressGolden(t))
}
