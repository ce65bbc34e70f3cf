package main

import (
	"sync"
	"time"
)

// epoch anchors every timestamp of a run on the monotonic clock.
var epoch = time.Now()

// now returns nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// blockRec is one sealed block, recorded by the generator.
type blockRec struct {
	height int64
	// due is the scheduled seal time in an open loop (0 in a closed one).
	due int64
	// genStart and genEnd bracket the block's swaps and ticks; seal is
	// just before chain.State.Block.
	genStart, genEnd, seal int64
	// t0 is where block-to-wire starts: the seal, or the due time when
	// the stack held the generator past it.
	t0 int64
	// mallocs is the process heap-object count at seal (traced blocks).
	mallocs uint64
}

// feedRec is one feed publish, seen on the benchmark's own Watcher
// subscription.
type feedRec struct {
	version uint64
	at      int64
	mallocs uint64 // heap objects at receive (traced heights)
	changed int
}

// scanRec is one scanned version, recorded by the scan loop around its
// calls into Watch, Encode, Publish and Append.
type scanRec struct {
	version        uint64
	failed         bool
	recv, elapsed  int64
	encEnd, pubEnd int64
	appEnd         int64
	profit         float64
	reoptimized    int
	reused, shards int
}

// eventRec is one SSE report event as the subscriber read it.
type eventRec struct {
	version uint64
	height  int64
	read    int64
	raw     []byte // the data line: the report's JSON
}

// readRec is one GET /v1/report.
type readRec struct {
	due, done int64
	status    int
	etag      string
	body      []byte
	failed    bool
}

// recorder collects one market's records from the goroutines that
// produce them. The metrics read it after those goroutines stopped.
type recorder struct {
	trace bool

	mu     sync.Mutex
	blocks []blockRec
	feeds  []feedRec
	scans  []scanRec
	events []eventRec
	reads  []readRec
}

// traced reports whether block height h carries per-layer spans: every
// second block of a traced run, so the others measure the same run
// without tracing for trace.overhead_frac.
func (r *recorder) traced(h int64) bool { return r.trace && h > 0 && h%2 == 0 }

func (r *recorder) block(b blockRec) { r.mu.Lock(); r.blocks = append(r.blocks, b); r.mu.Unlock() }
func (r *recorder) feed(f feedRec)   { r.mu.Lock(); r.feeds = append(r.feeds, f); r.mu.Unlock() }
func (r *recorder) scan(s scanRec)   { r.mu.Lock(); r.scans = append(r.scans, s); r.mu.Unlock() }
func (r *recorder) read(x readRec)   { r.mu.Lock(); r.reads = append(r.reads, x); r.mu.Unlock() }

// late is how long after its due time an open-loop block was sealed.
func (b blockRec) late() int64 {
	if b.due == 0 {
		return 0
	}
	return max(0, b.seal-b.due)
}
