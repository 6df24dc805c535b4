// Transaction-ring screening: a fintech-flavored use of subgraph
// matching. Accounts are vertices labeled by risk tier; transfers are
// edges. The pattern of interest is a "smurfing diamond": two low-tier
// mule accounts both receiving from one source and both forwarding to
// the same collector — a 4-cycle with typed corners.
//
// The example demonstrates first-k matching: a Match with Options.Limit
// indexes one embedding cluster, and more only when the first few rings
// are not all in it — screening stops without indexing the whole ledger,
// the right tool when any hit triggers a manual review anyway.
//
// Run with:
//
//	go run ./examples/fraud
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"ceci"
)

const (
	tierRetail ceci.Label = iota // ordinary accounts
	tierMule                     // freshly opened, low-history accounts
	tierHub                      // high-throughput accounts
)

func main() {
	ledger := buildLedger(30000, 120000, 42)
	fmt.Printf("transaction graph: %v\n", ledger)

	// The smurfing diamond: hub -> mule, hub -> mule', mule -> hub',
	// mule' -> hub' (undirected view: a 4-cycle hub-mule-hub-mule).
	qb := ceci.NewBuilder(0)
	source := qb.AddVertex(tierHub)
	mule1 := qb.AddVertex(tierMule)
	mule2 := qb.AddVertex(tierMule)
	collector := qb.AddVertex(tierHub)
	qb.AddEdge(source, mule1)
	qb.AddEdge(source, mule2)
	qb.AddEdge(mule1, collector)
	qb.AddEdge(mule2, collector)
	pattern := qb.MustBuild()

	// Screening mode: surface the first 5 rings, indexing only the
	// clusters they are found in.
	fmt.Println("\nfirst rings found (first-k screening):")
	screen, err := ceci.Match(ledger, pattern, &ceci.Options{Limit: 5})
	if err != nil {
		log.Fatal(err)
	}
	shown := 0
	var mu sync.Mutex // the callback may fire from several workers
	screen.ForEach(func(emb []ceci.VertexID) bool {
		mu.Lock()
		defer mu.Unlock()
		shown++
		fmt.Printf("  ring %d: source=acct%d mules=(acct%d, acct%d) collector=acct%d\n",
			shown, emb[source], emb[mule1], emb[mule2], emb[collector])
		return true
	})
	if shown == 0 {
		fmt.Println("  none (ledger clean)")
	}

	// Audit mode: exact total with the full index, plus plan statistics.
	m, err := ceci.Match(ledger, pattern, nil)
	if err != nil {
		log.Fatal(err)
	}
	total := m.Count()
	info := m.IndexInfo()
	fmt.Printf("\nfull audit: %d distinct rings\n", total)
	fmt.Printf("index: %d suspicious-account clusters, %d candidate edges, %.1f%% under worst case\n",
		info.Pivots, info.CandidateEdges, info.SpaceSavedPercent())
}

// buildLedger synthesizes a skewed transfer graph: most accounts are
// retail, a few hundred are high-throughput hubs, and a sprinkling of
// mule accounts connect preferentially to hubs (which is what makes the
// diamond pattern appear).
func buildLedger(accounts, transfers int, seed int64) *ceci.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := ceci.NewBuilder(accounts)
	hubs := make([]ceci.VertexID, 0, accounts/100)
	mules := make([]ceci.VertexID, 0, accounts/50)
	for v := 0; v < accounts; v++ {
		switch {
		case rng.Float64() < 0.01:
			b.SetLabel(ceci.VertexID(v), tierHub)
			hubs = append(hubs, ceci.VertexID(v))
		case rng.Float64() < 0.02:
			b.SetLabel(ceci.VertexID(v), tierMule)
			mules = append(mules, ceci.VertexID(v))
		default:
			b.SetLabel(ceci.VertexID(v), tierRetail)
		}
	}
	for i := 0; i < transfers; i++ {
		u := ceci.VertexID(rng.Intn(accounts))
		v := ceci.VertexID(rng.Intn(accounts))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	// Mule wiring: each mule transacts with a couple of hubs.
	for _, m := range mules {
		for k := 0; k < 2+rng.Intn(2); k++ {
			b.AddEdge(m, hubs[rng.Intn(len(hubs))])
		}
	}
	return b.MustBuild()
}
