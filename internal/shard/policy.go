package shard

import "sync"

// RoundRobin orders one shard's replicas for a scatter leg: the primary
// rotates per shard across requests, and the replicas after it in
// rotation order are the leg's failover targets.
type RoundRobin struct {
	mu   sync.Mutex
	next map[int]int
}

// NewRoundRobin returns a RoundRobin with per-shard rotation state.
func NewRoundRobin() *RoundRobin { return &RoundRobin{next: make(map[int]int)} }

// Pick returns replicas rotated so that this request's primary is first.
func (p *RoundRobin) Pick(shard int, replicas []*Replica) []*Replica {
	if len(replicas) <= 1 {
		return replicas
	}
	p.mu.Lock()
	start := p.next[shard] % len(replicas)
	p.next[shard]++
	p.mu.Unlock()
	ordered := make([]*Replica, 0, len(replicas))
	for i := 0; i < len(replicas); i++ {
		ordered = append(ordered, replicas[(start+i)%len(replicas)])
	}
	return ordered
}
