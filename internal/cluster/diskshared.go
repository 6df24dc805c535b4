package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/stats"
	"ceci/internal/workload"
)

// RunDiskShared executes the paper's §5 shared-storage deployment with
// real file IO: the data graph lives in a single CSR file (the lustre
// stand-in); machines hold only the beginning_position and label arrays
// and materialize, on demand, the region of the graph their pivot
// partition needs — depth-bounded BFS reads against the file. The IO the
// ledgers report is measured, not modeled: every adjacency fetch was a
// positioned read.
//
// The query is preprocessed against the disk graph's metadata (degrees
// and labels are resident; the NLC filter for pivot selection reads
// adjacency, charged like every other read, reproducing the paper's
// "CECI construction can take up to 40% of the total run-time" in this
// mode).
func RunDiskShared(csrPath string, query *graph.Graph, cfg Config) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	coordStats := &stats.Counters{}
	disk, err := graph.OpenDiskCSR(csrPath, coordStats)
	if err != nil {
		return nil, err
	}
	defer disk.Close()

	// The query tree is derived from the query alone plus cheap root
	// selection against disk metadata.
	tree, pivots, err := preprocessOnDisk(disk, query)
	if err != nil {
		return nil, err
	}
	// Shared-storage pivot distribution uses degree only (§5: "only the
	// degree of a node v is used since the neighbor information is not
	// available"), scaled by vertex ID as in distributePivots.
	parts := distributeByDegree(disk, pivots, cfg.Machines)

	res := &Result{Machines: make([]Ledger, cfg.Machines)}
	depth := treeHeight(tree)
	var total atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Machines)
	for id := 0; id < cfg.Machines; id++ {
		res.Machines[id].Pivots = len(parts[id])
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			led := &res.Machines[id]
			if len(parts[id]) == 0 {
				return
			}
			st := &stats.Counters{}
			md, err := graph.OpenDiskCSR(csrPath, st)
			if err != nil {
				errs <- err
				return
			}
			defer md.Close()

			ioStart := time.Now()
			region, err := md.MaterializeRegion(parts[id], depth)
			if err != nil {
				errs <- err
				return
			}
			led.BuildIO = time.Since(ioStart)
			led.RemoteReads = st.RemoteReads.Load()

			buildStart := time.Now()
			ix := ceci.Build(region, tree, ceci.Options{
				Workers: cfg.WorkersPerMachine,
				Pivots:  parts[id],
			})
			led.BuildCompute = time.Since(buildStart)

			enumStart := time.Now()
			n := enum.NewMatcher(ix, enum.Options{
				Workers:  cfg.WorkersPerMachine,
				Strategy: workload.FGD,
				Beta:     cfg.Beta,
			}).Count()
			led.Enumerate = time.Since(enumStart)
			led.Embeddings = n
			total.Add(n)
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.Embeddings = total.Load()
	for i := range res.Machines {
		if t := res.Machines[i].Total(); t > res.Makespan {
			res.Makespan = t
		}
	}
	return res, nil
}

// preprocessOnDisk derives the query tree and pivots using only disk
// metadata plus charged adjacency reads for the NLC filter.
func preprocessOnDisk(disk *graph.DiskCSR, query *graph.Graph) (*order.QueryTree, []graph.VertexID, error) {
	// Build a minimal in-memory view sufficient for order.Preprocess's
	// candidate counting: labels and degrees are resident; the NLC filter
	// needs neighbor labels, so candidate counting reads adjacency.
	// Rather than replicating the preprocessing logic, materialize the
	// label-filtered candidate neighborhoods of every query label — the
	// same reads the real system would issue — and preprocess on that
	// partial view.
	seeds := make([]graph.VertexID, 0, 1024)
	seen := make(map[graph.VertexID]bool)
	for u := 0; u < query.NumVertices(); u++ {
		for _, l := range query.Labels(graph.VertexID(u)) {
			for v := 0; v < disk.NumVertices(); v++ {
				if disk.Label(graph.VertexID(v)) == l && !seen[graph.VertexID(v)] {
					seen[graph.VertexID(v)] = true
					seeds = append(seeds, graph.VertexID(v))
				}
			}
		}
	}
	view, err := disk.MaterializeRegion(seeds, 0)
	if err != nil {
		return nil, nil, err
	}
	tree, err := order.Preprocess(view, query, order.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	return tree, tree.Filter(view).Candidates(tree.Root), nil
}

func distributeByDegree(disk *graph.DiskCSR, pivots []graph.VertexID, machines int) [][]graph.VertexID {
	n := float64(disk.NumVertices())
	loads := make([]float64, machines)
	parts := make([][]graph.VertexID, machines)
	for _, v := range pivots {
		w := float64(disk.Degree(v)) * (n - float64(v)) / n
		best := 0
		for i := 1; i < machines; i++ {
			if loads[i] < loads[best] {
				best = i
			}
		}
		loads[best] += w + 1
		parts[best] = append(parts[best], v)
	}
	for _, p := range parts {
		sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
	}
	return parts
}

func treeHeight(tree *order.QueryTree) int {
	max := int32(0)
	for _, d := range tree.Depth {
		if d > max {
			max = d
		}
	}
	return int(max)
}
