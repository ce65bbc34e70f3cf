package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"sync"
	"syscall"
	"time"

	"arbloop"
	"arbloop/internal/feed"
	"arbloop/internal/oplog"
	"arbloop/internal/strategy"
	"arbloop/internal/telemetry"
)

// coverTimeout bounds the wait for a sealed block's report; a block
// still uncovered after it counts as a failure.
const coverTimeout = 10 * time.Second

// counters is one reading of the program's own counters, taken at the
// boundaries of a market's measured phase.
type counters struct {
	delta                            arbloop.DeltaStats
	orient, prices, optimize, commit telemetry.HistogramSnapshot
	feed                             feed.WatcherStats
	solves, warmHits, warmMisses     uint64
	fallbacks, newtonIters           uint64
	oplog                            oplog.Stats
	evicted                          uint64
}

func (st *stack) counters() counters {
	m := st.scanner.Metrics()
	cv := strategy.Telemetry()
	return counters{
		delta:       st.scanner.DeltaStats(),
		orient:      m.StageOrient.Snapshot(),
		prices:      m.StagePrices.Snapshot(),
		optimize:    m.StageOptimize.Snapshot(),
		commit:      m.StageCommit.Snapshot(),
		feed:        st.watcher.Stats(),
		solves:      cv.Solves.Load(),
		warmHits:    cv.WarmHits.Load(),
		warmMisses:  cv.WarmMisses.Load(),
		fallbacks:   cv.Fallbacks.Load(),
		newtonIters: cv.NewtonIters.Load(),
		oplog:       st.olog.Stats(),
		evicted:     st.tracker.Evicted(),
	}
}

// marketRun is everything one market's run leaves for the metrics.
type marketRun struct {
	index         int
	setup         time.Duration
	rec           *recorder
	start, end    int64 // the measured phase
	cpu           time.Duration
	mallocs       uint64
	before, after counters
	// setupStat0, cpuStat0 and cpuStat1 are the machine's CPU counters
	// at the set-up's start and the measured phase's start and end (see
	// cpuStat).
	setupStat0, cpuStat0, cpuStat1 []float64
	logBytes                       int64
	logWritten                     uint64
	// digest hashes the served reports every run scans; frameBytes and
	// frames total the served report sizes. They are taken before the
	// report bodies are dropped, so a run holds one market's bodies at a
	// time and its peak memory is the program's, not the records'.
	digest     []byte
	frameBytes int64
	frames     int
}

// runMarket sets up one market, drives it for seconds, checks its
// outputs and tears it down.
func runMarket(w *workload, index int, marketSeed, flowSeed int64, seconds float64, trace bool, workDir string) (*marketRun, error) {
	rec := &recorder{trace: trace}
	setupStat0 := cpuStat()
	t := time.Now()
	st, err := newStack(w, marketSeed, flowSeed, rec, workDir)
	if err != nil {
		return nil, fmt.Errorf("market %d set-up: %w", index, err)
	}
	m := &marketRun{index: index, setup: time.Since(t), rec: rec, setupStat0: setupStat0}
	defer st.close()

	m.before = st.counters()
	cpu0, mallocs0 := cpuTime(), heapObjects()
	m.cpuStat0 = cpuStat()
	m.start = now()
	if w.openLoop() {
		err = st.openLoop(seconds)
	} else {
		err = st.closedLoop(seconds)
	}
	m.end = now()
	m.cpuStat1 = cpuStat()
	m.cpu, m.mallocs = cpuTime()-cpu0, heapObjects()-mallocs0
	m.after = st.counters()
	if err != nil {
		return nil, fmt.Errorf("market %d: %w", index, err)
	}
	if err := st.checkFinal(); err != nil {
		return nil, fmt.Errorf("market %d: %w", index, err)
	}
	st.close()
	m.logBytes, m.logWritten = st.logBytes, st.logWritten
	if err := checkReads(rec); err != nil {
		return nil, fmt.Errorf("market %d: %w", index, err)
	}
	h := sha256.New()
	for i := range rec.events {
		e := &rec.events[i]
		if w.scannedEveryRun(e.height) {
			var hdr [8]byte
			binary.LittleEndian.PutUint64(hdr[:], e.version)
			h.Write(hdr[:])
			h.Write(e.raw)
		}
		if e.height > 0 {
			m.frameBytes += int64(len(e.raw))
			m.frames++
		}
		e.raw = nil
	}
	m.digest = h.Sum(nil)
	for i := range rec.reads {
		rec.reads[i].body = nil
	}
	return m, nil
}

// gen applies one block's seeded load, retail swaps then CEX ticks,
// and returns the block's record with the load's interval.
func (st *stack) gen(h int64) (blockRec, error) {
	b := blockRec{height: h, genStart: now()}
	st.noiseSwaps(st.w.swaps)
	err := st.cexTicks(st.w.ticks)
	b.genEnd = now()
	return b, err
}

// seal records and seals block b. Block-to-wire starts at the seal,
// or at the due time of an open-loop block whose load was applied late.
func (st *stack) seal(b blockRec) {
	if st.rec.traced(b.height) {
		b.mallocs = heapObjects()
	}
	b.seal = now()
	b.t0 = b.seal
	if b.due != 0 && b.genEnd > b.due {
		b.t0 = b.due
	}
	st.state.Block(nil)
	st.rec.block(b)
}

// openLoop seals a block every interval on a fixed schedule, with a
// paced reader polling /v1/report beside the stream. At most one block
// is in flight: block k's load is applied once block k-1's report has
// been read, and block k seals at its due time or, if the stack held the
// generator past it, at once. So every run scans the same blocks.
// Block-to-wire starts at the due time when the stack held the generator
// back, so a stall is charged to every block it delays, and at the seal
// otherwise, so the sleep's wake-up slop is not.
func (st *stack) openLoop(seconds float64) error {
	interval := int64(float64(time.Second) / st.w.rate)
	n := int64(math.Round(seconds * st.w.rate))
	start := now() + interval
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if st.w.pollRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.poll(start, stop)
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for k := int64(1); k <= n; k++ {
		if _, err := st.sse.waitHeight(k-1, coverTimeout); err != nil {
			return err
		}
		b, err := st.gen(k)
		if err != nil {
			return err
		}
		b.due = start + (k-1)*interval
		if d := b.due - b.genEnd; d > 0 {
			time.Sleep(time.Duration(d))
		}
		st.seal(b)
	}
	_, err := st.sse.waitHeight(n, coverTimeout)
	return err
}

// poll issues paced GET /v1/report?top=N requests until stop closes,
// alternating a gzip request with a revalidation of the last ETag. Like
// a block, a request is timed from its due time when the previous one
// held it past it, and from when it was sent otherwise.
func (st *stack) poll(start int64, stop <-chan struct{}) {
	period := int64(float64(time.Second) / st.w.pollRate)
	url := st.base + "/v1/report?top=" + strconv.Itoa(st.w.pollTop)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	etag := ""
	for i := int64(0); ; i++ {
		due := start + i*period
		t0 := due
		if d := due - now(); d > 0 {
			timer.Reset(time.Duration(d))
			select {
			case <-stop:
				return
			case <-timer.C:
			}
			t0 = now()
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		hdr := map[string]string{"Accept-Encoding": "gzip"}
		if i%2 == 1 && etag != "" {
			hdr = map[string]string{"If-None-Match": etag}
		}
		r := getReport(st.reads, url, t0, hdr)
		st.rec.read(r)
		if r.status == 200 {
			etag = r.etag
		}
	}
}

// closedLoop seals block n+1 only after the subscriber has read block
// n's report, then reads /v1/report once to compare it with the event.
// It runs at least the workload's fixedBlocks, then until seconds
// have passed.
func (st *stack) closedLoop(seconds float64) error {
	end := now() + int64(seconds*float64(time.Second))
	url := st.base + "/v1/report"
	for k := int64(1); k <= int64(st.w.fixedBlocks) || now() < end; k++ {
		b, err := st.gen(k)
		if err != nil {
			return err
		}
		st.seal(b)
		if _, err := st.sse.waitHeight(k, coverTimeout); err != nil {
			return err
		}
		st.rec.read(getReport(st.reads, url, now(), nil))
	}
	return nil
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
