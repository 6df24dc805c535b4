package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// layerMoved is the relative change beyond which -compare lists a
// per-layer metric as moved. Per-layer metrics have no bound; the list is
// there to name the layer behind an end-to-end change.
const layerMoved = 0.10

type runKey struct {
	workload string
	traced   bool
}

// readRuns loads a -out file: metric medians per (workload, mode), over
// however many runs of each the file holds.
func readRuns(path string) (map[runKey]map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	if err := json.Unmarshal(raw, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	samples := make(map[runKey]map[string][]float64)
	for _, r := range recs {
		k := runKey{r.Workload, r.Traced}
		if samples[k] == nil {
			samples[k] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			samples[k][name] = append(samples[k][name], v.Value)
		}
	}
	out := make(map[runKey]map[string]float64, len(samples))
	for k, ms := range samples {
		out[k] = make(map[string]float64, len(ms))
		for name, xs := range ms {
			out[k][name] = median(xs)
		}
	}
	return out, nil
}

// worsening is how far b is worse than a, as a share of a, given which
// direction is better. Negative means b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareRuns prints one row per (workload, end-to-end metric) and, for
// each workload, the per-layer metrics that moved; it returns the names
// of the end-to-end metrics that worsened beyond their bound.
func compareRuns(a, b map[runKey]map[string]float64, w io.Writer) (regressed, moved []string) {
	for _, wl := range workloads {
		ea, eb := a[runKey{wl.name, false}], b[runKey{wl.name, false}]
		for _, s := range endToEnd {
			va, okA := ea[s.Name]
			vb, okB := eb[s.Name]
			if !okA || !okB {
				continue
			}
			worse := worsening(va, vb, s.Better)
			verdict := "ok"
			if worse > s.Bound {
				verdict = "REGRESSED"
				regressed = append(regressed, wl.name+"/"+s.Name)
			}
			fmt.Fprintf(w, "%-14s %-16s %12.4f -> %12.4f %-4s %+7.1f%% worse (bound %.0f%%) %s\n",
				wl.name, s.Name, va, vb, s.Unit, 100*worse, 100*s.Bound, verdict)
		}
		la, lb := a[runKey{wl.name, true}], b[runKey{wl.name, true}]
		for _, s := range perLayer {
			va, vb := la[s.Name], lb[s.Name]
			if va == 0 && vb == 0 {
				continue
			}
			if worse := worsening(va, vb, s.Better); va == 0 || worse > layerMoved || worse < -layerMoved {
				moved = append(moved, wl.name+"/"+s.Name)
				fmt.Fprintf(w, "%-14s   layer %-28s %12.4f -> %12.4f %-5s %+7.1f%% worse\n",
					wl.name, s.Name, va, vb, s.Unit, 100*worse)
			}
		}
	}
	sort.Strings(regressed)
	return regressed, moved
}

func compareFiles(oldPath, newPath string, w io.Writer) error {
	a, err := readRuns(oldPath)
	if err != nil {
		return err
	}
	b, err := readRuns(newPath)
	if err != nil {
		return err
	}
	if regressed, _ := compareRuns(a, b, w); len(regressed) > 0 {
		return fmt.Errorf("regressed beyond bound: %s", strings.Join(regressed, ", "))
	}
	return nil
}
