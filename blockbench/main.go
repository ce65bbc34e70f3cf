// Command blockbench is arbloop's end-to-end benchmark: it serves seeded
// markets through the full serving stack, the way `arbloop serve` wires
// it, measures each block from its seal to the subscriber's socket,
// checks the served reports, and prints the metrics as one JSON line.
//
//	blockbench --workload paper_stream --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the per-layer trace.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// maxProcs caps GOMAXPROCS: the benchmark is sized for a 2-vCPU box, and
// results are recorded with the value used.
const maxProcs = 2

// workDir holds everything the benchmark writes: oplog segments while a
// market runs, and the span trace.
const workDir = ".bench_build/blockbench"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "blockbench: %v\n", err)
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies a recording.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Markets    int     `json:"markets"`
	// StealFrac is the share of the machine's CPU time its hypervisor
	// withheld during the run: wall-clock figures of runs with very
	// different steal are not comparable.
	StealFrac float64 `json:"steal_frac"`
	Digest    string  `json:"report_digest"`
	Time      string  `json:"time"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("blockbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: every input derives from it")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: per-layer spans and metrics instead of the end-to-end ones")
	history := fs.String("history", "", "append the stamped result to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}

	// Every input derives from the seed: each market's generator seed and
	// the seed of its swaps and ticks.
	stat0 := cpuStat()
	seeds := rand.New(rand.NewSource(*seed))
	markets := w.markets(*seconds)
	runs := make([]*marketRun, 0, markets)
	for i := 0; i < markets; i++ {
		marketSeed, flowSeed := seeds.Int63()|1, seeds.Int63()
		m, err := runMarket(w, i, marketSeed, flowSeed, *seconds/float64(markets), *trace == 1, workDir)
		if err != nil {
			return err
		}
		runs = append(runs, m)
		runtime.GC() // each set-up starts from a collected heap
	}
	if err := checkGenerator(w, runs); err != nil {
		return err
	}

	e2e, attempted, failed, digest, err := endToEnd(w, runs)
	if err != nil {
		return err
	}
	res := result{Correct: true, Attempted: attempted, Failed: failed, Metrics: e2e}
	if *trace == 1 {
		file := filepath.Join(workDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if res.Metrics, err = perLayer(runs, file); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "blockbench: spans written to %s\n", file)
	}
	st := stamp{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Commit: commit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Markets: markets, StealFrac: stealFrac(stat0, cpuStat()), Digest: digest,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	stampLine, err := json.Marshal(map[string]stamp{"stamp": st})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if *history != "" {
		if err := appendHistory(*history, st, res); err != nil {
			return err
		}
	}
	fmt.Println(string(stampLine))
	fmt.Println(string(line))
	return nil
}

// maxLateBlocks is how many block intervals late the generator may seal
// its p99 block. A stall of a few intervals is charged to the blocks it
// delays; lateness past this means a backlog: the stack did not sustain
// the offered rate, and the run did not measure the load it names.
const maxLateBlocks = 10

// checkGenerator rejects an open-loop run whose generator fell behind
// its schedule (see maxLateBlocks).
func checkGenerator(w *workload, runs []*marketRun) error {
	if !w.openLoop() {
		return nil
	}
	var late []float64
	for _, m := range runs {
		for _, b := range m.rec.blocks {
			late = append(late, ms(b.late()))
		}
	}
	limit := maxLateBlocks * 1000 / w.rate
	if p99 := quantile(sortedCopy(late), 99); p99 > limit {
		return fmt.Errorf("invalid run: generator p99 lateness %.3f ms exceeds %d block intervals", p99, maxLateBlocks)
	}
	return nil
}

// appendHistory appends one stamped recording to a JSON-lines history,
// so recordings accumulate instead of overwriting each other.
func appendHistory(path string, st stamp, res result) error {
	line, err := json.Marshal(struct {
		Stamp  stamp  `json:"stamp"`
		Result result `json:"result"`
	}{st, res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// commit returns the revision run.sh stamps into BLOCKBENCH_COMMIT.
func commit() string {
	if c := os.Getenv("BLOCKBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// cpuStat returns the machine-wide CPU time counters of /proc/stat
// (user, nice, system, idle, iowait, irq, softirq, steal, ...), or nil.
func cpuStat() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	out := make([]float64, 0, len(fields)-1)
	for _, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stealFrac returns the steal share of all CPU time between two
// cpuStat readings (0 when unknown).
func stealFrac(a, b []float64) float64 {
	if len(a) < 8 || len(b) != len(a) {
		return 0
	}
	var total float64
	for i := range a {
		total += b[i] - a[i]
	}
	return ratio(b[7]-a[7], total)
}

// cpuDelta returns the CPU time stolen by the hypervisor and the CPU
// time the guest used (user, nice, system, irq, softirq) between two
// cpuStat readings, in jiffies (zeros when unknown).
func cpuDelta(a, b []float64) (stolen, used float64) {
	if len(a) < 8 || len(b) != len(a) {
		return 0, 0
	}
	d := func(i int) float64 { return b[i] - a[i] }
	return d(7), d(0) + d(1) + d(2) + d(5) + d(6)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
