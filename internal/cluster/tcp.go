package cluster

import (
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ceci/internal/auto"
	"ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/stats"
	"ceci/internal/workload"
)

// RunTCP executes the distributed run with machines communicating over
// real TCP loopback connections — an actual network substrate standing in
// for the paper's MPI deployment rather than shared-memory channels.
// Every control exchange is a real message over a real socket:
//
//   - pivot distribution (the coordinator assigns each machine its
//     partition, §5's MPI_Send/MPI_Recv);
//   - pull-based cluster requests and work stealing (a machine with an
//     empty queue asks the coordinator, which serves from the victim with
//     the most unexplored clusters — the brokered equivalent of MPI_Get);
//   - result accumulation to the coordinator.
//
// Wire bytes and message counts are measured on the socket, not modeled.
// The data graph is replicated (each machine goroutine shares the
// process's copy, standing in for §5's in-memory mode); machines build
// their own CECI over their partition exactly as in Run.
func RunTCP(data, query *graph.Graph, cfg Config) (*Result, error) {
	return RunTCPCtx(context.Background(), data, query, cfg)
}

// RunTCPCtx is RunTCP with a context. The context's ambient span or
// trace identity (if any) roots the run's span tree, and the trace
// context crosses the wire: the coordinator's welcome message carries a
// W3C traceparent naming the run span as parent, and each machine opens
// its "machine" span from that header via StartRemote — the same
// stitch-by-parent-span-ID mechanism a multi-process deployment would
// use, exercised over real sockets.
func RunTCPCtx(ctx context.Context, data, query *graph.Graph, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	cfg.wireObs()
	runSpan := obs.StartUnder(ctx, cfg.Tracer, "tcp-run", obs.Int("machines", int64(cfg.Machines)))
	defer runSpan.End()
	// The welcome traceparent parents every machine under the run span.
	var welcome msgWelcome
	if tc := runSpan.Context(); tc.Valid() {
		tc.Sampled = true
		welcome.Traceparent = tc.Traceparent()
	}
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		return nil, err
	}
	cons := auto.Compute(query)

	pivots := tree.Filter(data).Candidates(tree.Root)
	parts := distributePivots(data, pivots, cfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	defer ln.Close()

	coord := &coordinator{
		queues:  make([][]graph.VertexID, cfg.Machines),
		result:  &Result{Machines: make([]Ledger, cfg.Machines)},
		stats:   cfg.Stats,
		welcome: welcome,
	}
	for i, p := range parts {
		coord.queues[i] = append([]graph.VertexID(nil), p...)
		coord.result.Machines[i].Pivots = len(p)
	}
	if cfg.Obs != nil {
		// Per-machine pending/stolen counts straight off the coordinator,
		// scrapeable while machines are pulling work over TCP.
		cfg.Obs.SetSource("cluster", coord.telemetry)
	}

	// Machines: separate goroutines, but every interaction goes through
	// their socket.
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Machines+1)
	for id := 0; id < cfg.Machines; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// No in-process span handoff: the machine learns its trace
			// position from the coordinator's welcome message alone.
			if err := runTCPMachine(id, ln.Addr().String(), data, tree, cons, cfg); err != nil {
				errs <- fmt.Errorf("machine %d: %w", id, err)
			}
		}(id)
	}

	// Coordinator accept loop.
	var serveWG sync.WaitGroup
	for i := 0; i < cfg.Machines; i++ {
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("cluster: accept: %w", err)
		}
		serveWG.Add(1)
		go func() {
			defer serveWG.Done()
			if err := coord.serve(conn); err != nil {
				errs <- fmt.Errorf("coordinator: %w", err)
			}
		}()
	}
	wg.Wait()
	serveWG.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := coord.result
	res.Embeddings = coord.total.Load()
	res.Steals = coord.steals.Load()
	for i := range res.Machines {
		if t := res.Machines[i].Total(); t > res.Makespan {
			res.Makespan = t
		}
	}
	return res, nil
}

// Wire protocol: a machine sends hello, receives the coordinator's
// welcome (carrying the run's trace context), then pulls work until the
// coordinator answers done, then reports its ledger.
type (
	msgHello struct{ ID int }
	// msgWelcome is the coordinator's reply to hello. Traceparent is the
	// run's trace position as a W3C header value ("" when the run is
	// untraced); the machine roots its span tree under it.
	msgWelcome struct{ Traceparent string }
	msgNext    struct{ ID int }
	msgWork    struct {
		Pivot  uint32
		Stolen bool
		Done   bool
	}
	msgReport struct {
		ID           int
		Embeddings   int64
		BuildCompute time.Duration
		Enumerate    time.Duration
	}
)

type coordinator struct {
	mu      sync.Mutex
	queues  [][]graph.VertexID
	result  *Result
	total   atomic.Int64
	steals  atomic.Int64
	stats   *stats.Counters // live global counters (may be nil)
	welcome msgWelcome      // trace context sent to every machine after hello
}

// telemetry is the mid-run gauge source for an attached obs.Registry.
func (c *coordinator) telemetry() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, 2*len(c.queues)+2)
	out["machines"] = int64(len(c.queues))
	out["embeddings"] = c.total.Load()
	for i := range c.queues {
		out[fmt.Sprintf("machine_%d_pending", i)] = int64(len(c.queues[i]))
		out[fmt.Sprintf("machine_%d_stolen", i)] = int64(c.result.Machines[i].Stolen)
	}
	return out
}

// next pops a pivot for machine id: its own queue first, then the victim
// with the most unexplored clusters.
func (c *coordinator) next(id int) (graph.VertexID, bool, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if q := c.queues[id]; len(q) > 0 {
		v := q[len(q)-1]
		c.queues[id] = q[:len(q)-1]
		return v, false, true
	}
	victim, best := -1, 0
	for i := range c.queues {
		if i != id && len(c.queues[i]) > best {
			victim, best = i, len(c.queues[i])
		}
	}
	if victim < 0 {
		return 0, false, false
	}
	q := c.queues[victim]
	v := q[len(q)-1]
	c.queues[victim] = q[:len(q)-1]
	return v, true, true
}

func (c *coordinator) serve(conn net.Conn) error {
	defer conn.Close()
	cc := newCountingConn(conn, c.stats)
	dec := gob.NewDecoder(cc)
	enc := gob.NewEncoder(cc)

	var hello msgHello
	if err := dec.Decode(&hello); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	id := hello.ID
	if id < 0 || id >= len(c.queues) {
		return fmt.Errorf("bad machine id %d", id)
	}
	if err := enc.Encode(c.welcome); err != nil {
		return fmt.Errorf("welcome: %w", err)
	}
	for {
		var req msgNext
		if err := dec.Decode(&req); err != nil {
			return fmt.Errorf("next: %w", err)
		}
		pivot, stolen, ok := c.next(id)
		if stolen {
			c.steals.Add(1)
			if c.stats != nil {
				c.stats.StealAttempts.Add(1)
			}
			c.mu.Lock()
			c.result.Machines[id].Stolen++
			c.mu.Unlock()
		}
		if err := enc.Encode(msgWork{Pivot: pivot, Stolen: stolen, Done: !ok}); err != nil {
			return fmt.Errorf("work: %w", err)
		}
		if !ok {
			break
		}
	}
	var rep msgReport
	if err := dec.Decode(&rep); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	c.total.Add(rep.Embeddings)
	c.stats.AddEmbeddings(rep.Embeddings)
	c.mu.Lock()
	led := &c.result.Machines[id]
	led.Embeddings = rep.Embeddings
	led.BuildCompute = rep.BuildCompute
	led.Enumerate = rep.Enumerate
	led.MessagesSent += cc.messages.Load()
	led.RemoteReads = 0
	c.mu.Unlock()
	c.addWire(id, cc.bytes.Load())
	return nil
}

func (c *coordinator) addWire(id int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Comm ledger: measured socket bytes over a loopback-speed link plus
	// a per-message floor would double-model; record bytes directly.
	c.result.Machines[id].Comm += time.Duration(bytes) // 1ns/byte ≈ 1 GB/s link
}

func runTCPMachine(id int, addr string, data *graph.Graph, tree *order.QueryTree,
	cons *auto.Constraints, cfg Config) error {

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	if err := enc.Encode(msgHello{ID: id}); err != nil {
		return err
	}
	var welcome msgWelcome
	if err := dec.Decode(&welcome); err != nil {
		return fmt.Errorf("welcome: %w", err)
	}
	// The machine's span tree roots under the wire-propagated trace
	// position — never an in-process pointer — so the stitch works the
	// same when the machine is a separate process on another host.
	var span *obs.Span
	if tc, err := obs.ParseTraceparent(welcome.Traceparent); err == nil {
		span = cfg.Tracer.StartRemote(tc, "machine", obs.Int("id", int64(id)))
	}
	defer span.End()

	var (
		found     int64
		buildTime time.Duration
		enumTime  time.Duration
		ix        *ceci.Index
	)
	for {
		if err := enc.Encode(msgNext{ID: id}); err != nil {
			return err
		}
		var work msgWork
		if err := dec.Decode(&work); err != nil {
			return err
		}
		if work.Done {
			break
		}
		// Build lazily, per cluster: the machine's CECI covers exactly
		// the pivots it ends up processing (including stolen ones).
		csp := span.Child("cluster",
			obs.Int("pivot", int64(work.Pivot)),
			obs.Int("stolen", b2i(work.Stolen)))
		t0 := time.Now()
		ix = ceci.Build(data, tree, ceci.Options{
			Workers: cfg.WorkersPerMachine,
			Pivots:  []graph.VertexID{work.Pivot},
		})
		buildTime += time.Since(t0)
		if len(ix.Pivots()) == 0 {
			csp.End()
			continue
		}
		t0 = time.Now()
		m := enum.NewMatcher(ix, enum.Options{
			Workers:  cfg.WorkersPerMachine,
			Strategy: workload.FGD,
			Beta:     cfg.Beta,
		})
		found += m.Count()
		enumTime += time.Since(t0)
		csp.End()
	}
	return enc.Encode(msgReport{
		ID:           id,
		Embeddings:   found,
		BuildCompute: buildTime,
		Enumerate:    enumTime,
	})
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// countingConn measures wire traffic; every read/write is also mirrored
// into the global counter set (when present) so BytesOnWire and
// MessagesSent advance live on the telemetry endpoint instead of only
// appearing in the final ledgers.
type countingConn struct {
	net.Conn
	bytes    atomic.Int64
	messages atomic.Int64
	global   *stats.Counters
}

func newCountingConn(c net.Conn, global *stats.Counters) *countingConn {
	return &countingConn{Conn: c, global: global}
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	if c.global != nil {
		c.global.BytesOnWire.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	c.messages.Add(1)
	if c.global != nil {
		c.global.BytesOnWire.Add(int64(n))
		c.global.MessagesSent.Add(1)
	}
	return n, err
}
