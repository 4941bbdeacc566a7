// Command perfbench is the repository's end-to-end benchmark. One run
// executes one named workload and prints every metric by name, with its
// unit and sample count, then a final JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every run has two phases, so every workload reports the same metrics:
//
//   - the research pipeline, in-process: build a synthetic world, crawl
//     it through the protocol, stream the days to .edt, load them back
//     with edonkey.LoadStudyStream and render the 27-experiment suite;
//   - serving: edserved runs as a child process and takes an open-loop,
//     pipelined request stream over loopback TCP, every reply checked
//     byte for byte against an oracle built in-process.
//
// The workload picks the serving mix: serve-small has no keyword search
// (small replies, per-message cost dominates), serve-day has the full
// mix (bulk search replies dominate). The pipeline phase is identical
// on both, so it is the "no change" side of any serving optimisation,
// and the serving metrics are the "no change" side of a pipeline one.
//
// With -trace 1 the run instead reports per-layer metrics: a traced
// pipeline pass, /proc counters and client-side figures from the TCP
// run, and a traced in-process replay of the same request stream
// through the protocol and serve layers. See README.md.
//
// Usage (from the repository root, via the wrapper that builds the
// binaries):
//
//	bash perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number. Samples is how many measurements the
// value summarizes (requests for a latency, runs for a median).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// report collects a run's metrics and outcome.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Machine   machine           `json:"machine"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: n}
}

// fail records a correctness or validity problem; the run then reports
// correct=false.
func (r *report) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// benchmarkFile lists the workloads and the metric names and units of
// both modes; the final JSON line carries exactly the listed metrics.
const benchmarkFile = "BENCHMARK.json"

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: serve-small or serve-day")
		seed         = flag.Uint64("seed", 1, "request-stream seed")
		seconds      = flag.Int("seconds", 10, "length of the measured serving window")
		traced       = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		edserved     = flag.String("edserved", "", "path to the edserved binary")
		workDir      = flag.String("workdir", ".bench_build/work", "scratch directory for traces and results")
	)
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *traced == 1, *edserved, *workDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, edserved, workDir string) error {
	load, ok := serveWorkloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want serve-small or serve-day)", name)
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if edserved == "" {
		return errors.New("-edserved is required")
	}
	raw, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return err
	}
	var bench benchmarkSpec
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	rep := &report{
		Workload: name, Seed: seed, Trace: traced,
		Machine: describeMachine(), Metrics: map[string]metric{},
	}
	fmt.Printf("machine: %s\n", rep.Machine)

	tr := (*tracer)(nil)
	if traced {
		tr = newTracer()
	}
	steal0 := readSteal()
	if err := runPipelinePhase(rep, defaultPipeline(), workDir, tr); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	if err := runServePhase(rep, load, seed, seconds, edserved, tr); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if steal1 := readSteal(); steal1.total > steal0.total {
		rep.set("bench.steal_frac", float64(steal1.steal-steal0.steal)/float64(steal1.total-steal0.total), "ratio", 1)
	}
	if tr != nil {
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.tsv", name, seed))
		if err := tr.writeFile(path); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", tr.len(), path)
	}
	return finish(rep, bench, workDir)
}

// finish prints the human-readable metric lines, saves the full report
// and prints the final JSON line restricted to this mode's metric set.
func finish(rep *report, bench benchmarkSpec, workDir string) error {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("metric %-30s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	errFrac := 0.0
	if rep.Attempted > 0 {
		errFrac = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Printf("metric %-30s %14.6g %-6s n=%d\n", "error_frac", errFrac, "ratio", rep.Attempted)
	for _, p := range rep.Problems {
		fmt.Printf("problem: %s\n", p)
	}

	want := bench.EndToEnd
	if rep.Trace {
		want = bench.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(rep.Problems) == 0 && rep.Failed == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]value{},
	}
	for _, w := range want {
		m, ok := rep.Metrics[w.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", w.Name)
		}
		if m.Unit != w.Unit {
			return fmt.Errorf("metric %s is measured in %s, %s says %s", w.Name, m.Unit, benchmarkFile, w.Unit)
		}
		out.Metrics[w.Name] = value{m.Value, m.Unit}
	}
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if rep.Trace {
		mode = 1
	}
	path := filepath.Join(workDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", rep.Workload, rep.Seed, mode))
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// machine is the record every result carries, so numbers from different
// boxes are never compared blind.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Network    string `json:"network"`
}

func (m machine) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s kernel=%s network=%s",
		m.NumCPU, m.GOMAXPROCS, m.CPUModel, m.GoVersion, m.Kernel, m.Network)
}

// cpuTicks is the machine-wide steal and total time from /proc/stat.
type cpuTicks struct{ steal, total uint64 }

// readSteal reads the time the hypervisor ran other guests on this
// box's CPUs; on a shared VM it is the main source of run-to-run noise.
func readSteal() cpuTicks {
	var t cpuTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// user nice system idle iowait irq softirq steal; guest time is
	// already part of user.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

func describeMachine() machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Network:    "serve traffic over loopback TCP (127.0.0.1)",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	return m
}
