package telemetry

import (
	"slices"
	"sync"
	"testing"
	"time"

	"ceci/internal/setops"
)

func TestLedgerSnapshot(t *testing.T) {
	l := NewLedger()
	l.Begin(3, 2)
	l.AddWork(10, 3)
	l.AddUnit(0, 2*time.Millisecond, 7, 4096)
	l.AddWork(20, 5)
	l.AddUnit(1, 3*time.Millisecond, 0, 1024) // smaller scratch: peak keeps 4096

	var d setops.KernelStats
	d.Calls[setops.KernelMerge] = 4
	d.Scanned[setops.KernelMerge] = 400
	d.Emitted[setops.KernelMerge] = 40
	l.AddPosition(1, StepCounts{Lookups: 6, Intersections: 4, Comparisons: 50, Output: 40}, &d)
	d = setops.KernelStats{}
	d.Calls[setops.KernelProbe] = 2
	d.Scanned[setops.KernelProbe] = 100
	d.Emitted[setops.KernelProbe] = 10
	l.AddPosition(2, StepCounts{Lookups: 2, Intersections: 2, Comparisons: 9, Output: 10, Verifications: 1}, &d)
	l.AddPosition(3, StepCounts{Lookups: 1}, &d) // past the table: dropped

	r := l.Snapshot()
	if r.CPUUS != 5000 || r.Units != 2 || r.RecursiveCalls != 30 || r.Embeddings != 8 {
		t.Fatalf("snapshot = %+v", r)
	}
	if r.PeakScratchBytes != 4096 {
		t.Fatalf("peak scratch = %d, want max not sum", r.PeakScratchBytes)
	}
	if len(r.Kernels) != 2 {
		t.Fatalf("kernel mix = %+v, want merge and probe only", r.Kernels)
	}
	if r.Kernels[0].Kernel != "merge" || r.Kernels[0].Calls != 4 || r.Kernels[0].Scanned != 400 {
		t.Fatalf("merge mix = %+v", r.Kernels[0])
	}
	if r.Kernels[1].Kernel != "probe" || r.Kernels[1].Emitted != 10 {
		t.Fatalf("probe mix = %+v", r.Kernels[1])
	}

	pos := l.Positions()
	if len(pos) != 3 || pos[0] != (PositionWork{}) || pos[1].Lookups != 6 || pos[1].Output != 40 ||
		pos[2].Verifications != 1 || pos[2].Kernels.Scanned[setops.KernelProbe] != 100 {
		t.Fatalf("positions = %+v", pos)
	}
	if w := l.Work(); w.Embeddings != 8 || w.Cardinality != 7 ||
		!slices.Equal(w.WorkerBusy, []time.Duration{2 * time.Millisecond, 3 * time.Millisecond}) ||
		!slices.Equal(w.WorkerDone, []int64{1, 1}) {
		t.Fatalf("work = %+v", w)
	}
}

// TestLedgerBeginGrows: a larger Begin extends the tables in place — what
// was charged stays, and a slot held from before the growth is the slot
// read after it.
func TestLedgerBeginGrows(t *testing.T) {
	l := NewLedger()
	l.AddUnit(0, time.Second, 1, 1) // before any Begin: no worker slot, totals only
	l.Begin(2, 1)
	var none setops.KernelStats
	l.AddPosition(1, StepCounts{Lookups: 5}, &none)
	l.AddUnit(0, time.Millisecond, 0, 0)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l.Begin(2+g, 1+g)
			for i := 0; i < 100; i++ {
				l.AddPosition(1, StepCounts{Lookups: 1}, &none)
				l.AddUnit(g, time.Microsecond, 0, 0)
			}
		}(g)
	}
	wg.Wait()
	l.Begin(1, 1) // smaller: no-op

	pos, workers := l.Positions(), l.Work().WorkerDone
	if len(pos) != 5 || len(workers) != 4 {
		t.Fatalf("tables %d x %d, want 5 x 4", len(pos), len(workers))
	}
	if pos[1].Lookups != 405 {
		t.Fatalf("position 1 lookups = %d, want 405", pos[1].Lookups)
	}
	if r := l.Snapshot(); r.Units != 401 {
		t.Fatalf("units = %d, want 401", r.Units)
	}
}

func TestLedgerNilSafe(t *testing.T) {
	var l *Ledger
	l.Begin(1, 1)
	l.AddWork(1, 1)
	l.AddUnit(0, time.Second, 1, 1)
	l.AddPosition(0, StepCounts{}, &setops.KernelStats{})
	if l.Snapshot() != nil || l.Positions() != nil || l.Work().WorkerBusy != nil {
		t.Fatalf("nil ledger must read as nil")
	}
}

func TestLedgerChargeAllocFree(t *testing.T) {
	l := NewLedger()
	l.Begin(1, 1)
	var d setops.KernelStats
	d.Calls[setops.KernelProbe] = 1
	avg := testing.AllocsPerRun(100, func() {
		l.AddWork(5, 1)
		l.AddPosition(0, StepCounts{Lookups: 1, Output: 1}, &d)
		l.AddUnit(0, time.Microsecond, 1, 2048)
	})
	if avg != 0 {
		t.Fatalf("ledger charge allocates %.1f times per unit", avg)
	}
}
