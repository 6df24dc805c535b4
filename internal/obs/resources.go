package obs

import (
	"fmt"
	"slices"
	"strings"
)

// QueryResources is one query's resource ledger: what the query actually
// cost, beyond how long it took. The enumeration layer charges it at
// work-unit boundaries (never inside the zero-allocation depth step),
// and the snapshot rides the query's flight record, so /queryz answers
// what each query cost, not just which instances were slow, and the
// hub's running totals at /statz sum it over every query.
type QueryResources struct {
	// CPUUS is the summed worker busy time across the enumeration — the
	// query's CPU cost in microseconds, which under multi-worker
	// enumeration exceeds the enumeration wall time.
	CPUUS int64 `json:"cpu_us"`
	// Units is how many work units (clusters or decomposed sub-units)
	// the enumeration scheduled for this query.
	Units int64 `json:"units"`
	// RecursiveCalls counts backtracking-search extensions.
	RecursiveCalls int64 `json:"recursive_calls"`
	// Embeddings delivered by the enumeration.
	Embeddings int64 `json:"embeddings"`
	// PeakScratchBytes is the high-water physical footprint of the
	// per-worker candidate/intersection scratch (per-depth buffers and
	// span bitmaps) — the query's live enumeration memory beyond the
	// index itself.
	PeakScratchBytes int64 `json:"peak_scratch_bytes"`
	// Kernels is the adaptive intersection-kernel mix (PR 7's
	// KernelStats): which kernels fired and how much they scanned and
	// emitted. Kernels that never fired are omitted.
	Kernels []KernelMix `json:"kernels,omitempty"`
}

// KernelMix is one intersection kernel's share of a query's set work.
type KernelMix struct {
	Kernel  string `json:"kernel"`
	Calls   int64  `json:"calls"`
	Scanned int64  `json:"scanned"`
	Emitted int64  `json:"emitted"`
}

// Add accumulates o into r (the hub's totals across queries). Peak
// fields take the max; everything else sums. It allocates only when r
// meets a kernel for the first time.
func (r *QueryResources) Add(o *QueryResources) {
	if o == nil {
		return
	}
	r.CPUUS += o.CPUUS
	r.Units += o.Units
	r.RecursiveCalls += o.RecursiveCalls
	r.Embeddings += o.Embeddings
	if o.PeakScratchBytes > r.PeakScratchBytes {
		r.PeakScratchBytes = o.PeakScratchBytes
	}
	for _, k := range o.Kernels {
		found := false
		for i := range r.Kernels {
			if r.Kernels[i].Kernel == k.Kernel {
				r.Kernels[i].Calls += k.Calls
				r.Kernels[i].Scanned += k.Scanned
				r.Kernels[i].Emitted += k.Emitted
				found = true
				break
			}
		}
		if !found {
			r.Kernels = append(r.Kernels, k)
		}
	}
	slices.SortFunc(r.Kernels, func(a, b KernelMix) int { return strings.Compare(a.Kernel, b.Kernel) })
}

// Text renders the ledger as an aligned block for cecirun -ledger and
// EXPLAIN ANALYZE.
func (r *QueryResources) Text() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "resource ledger:\n")
	fmt.Fprintf(&b, "  enum cpu:        %s (worker busy time)\n", usString(r.CPUUS))
	fmt.Fprintf(&b, "  work units:      %d\n", r.Units)
	fmt.Fprintf(&b, "  recursive calls: %d\n", r.RecursiveCalls)
	fmt.Fprintf(&b, "  embeddings:      %d\n", r.Embeddings)
	fmt.Fprintf(&b, "  peak scratch:    %s\n", byteString(r.PeakScratchBytes))
	if len(r.Kernels) > 0 {
		fmt.Fprintf(&b, "  kernel mix:\n")
		for _, k := range r.Kernels {
			fmt.Fprintf(&b, "    %-8s %10d calls %14d scanned %14d emitted\n",
				k.Kernel, k.Calls, k.Scanned, k.Emitted)
		}
	}
	return b.String()
}

// usString formats a microsecond total as a human duration.
func usString(us int64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}

// byteString formats a byte count with a binary unit.
func byteString(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
