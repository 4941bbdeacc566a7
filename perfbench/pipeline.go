package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"

	"edonkey"
	"edonkey/internal/analysis"
	"edonkey/internal/core"
	"edonkey/internal/crawler"
	"edonkey/internal/trace"
	"edonkey/internal/workload"
)

// pipelineSeed fixes the pipeline's world. The world, not the request
// stream, sets how much work the crawl and the suite do (analyze time
// moves by ~20% between world seeds), so a fixed world keeps crawl_s and
// analyze_s comparable across runs; --seed varies only the request
// stream. pinnedDigest pins the rendered suite of that world: every run
// fails when the 27 experiments render differently. Refresh it only
// with a change that is meant to alter the figures.
const (
	pipelineSeed = 1
	pinnedDigest = "d93b81b0e931a53e429a0e3c28d0ce4b98c41f7ec9f9cce7cb59c94fbf18d42c"
)

// pipelineConfig sizes the research-path phase.
type pipelineConfig struct {
	seed     uint64
	peers    int
	days     int
	workers  int // 0 = GOMAXPROCS
	crawls   int // untraced world→crawl→.edt iterations
	analyses int // how many of them also load and render the suite
	builds   int // workload.New repetitions for the set-up median
}

func defaultPipeline() pipelineConfig {
	return pipelineConfig{seed: pipelineSeed, peers: 5000, days: 14, crawls: 4, analyses: 2, builds: 3}
}

// worldConfig scales the population like edcrawl does.
func (c pipelineConfig) worldConfig() workload.Config {
	w := workload.DefaultConfig()
	w.Seed = c.seed
	w.Peers = c.peers
	w.Days = c.days
	w.Workers = c.workers
	w.Topics = max(8, c.peers/20)
	w.InitialFiles = 30 * c.peers
	w.NewFilesPerDay = max(1, w.InitialFiles/100)
	return w
}

// simulationIDs are the suite experiments driven by the search
// simulation (internal/core); the rest form the static analysis.
var simulationIDs = []string{"fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "table3"}

// pipelineRun is one crawl→figures iteration.
type pipelineRun struct {
	build, crawl, analyze time.Duration
	digest                string
	experiments           int
	edt                   trace.EDTVerifyReport
	stats                 crawler.Stats
}

// stageUsage is the process CPU and allocator activity over one stage.
type stageUsage struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
}

type usageMark struct {
	at     time.Time
	cpu    time.Duration
	allocs uint64
	cycles uint64
}

var usageMetrics = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func markUsage() usageMark {
	s := make([]metrics.Sample, len(usageMetrics))
	for i, n := range usageMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return usageMark{at: time.Now(), cpu: processCPU(), allocs: s[0].Value.Uint64(), cycles: s[1].Value.Uint64()}
}

func (m usageMark) since() stageUsage {
	now := markUsage()
	return stageUsage{
		wall:       now.at.Sub(m.at),
		cpu:        now.cpu - m.cpu,
		allocBytes: now.allocs - m.allocs,
		gcCycles:   now.cycles - m.cycles,
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pipelineLayers collects the traced pass's per-layer figures.
type pipelineLayers struct {
	crawl, analyze stageUsage
	sim            core.SweepTimings
}

// runPipeline builds the world, crawls it to an .edt file at path and
// verifies the file; with analyze it then loads it with
// LoadStudyStream and renders the full suite into a digest. With a
// tracer it records spans around each layer call and fills layers.
func runPipeline(cfg pipelineConfig, path string, analyze bool, tr *tracer, layers *pipelineLayers) (pipelineRun, error) {
	var r pipelineRun
	root := tr.begin("pipeline", -1, -1)
	defer tr.end(root)

	t0 := time.Now()
	h := tr.begin("workload.New", -1, root)
	w, err := workload.New(cfg.worldConfig())
	tr.end(h)
	if err != nil {
		return r, err
	}
	r.build = time.Since(t0)

	t0 = time.Now()
	crawlMark := markUsage()
	r.stats, err = crawlToEDT(w, cfg.days, path, tr, root)
	if err != nil {
		return r, err
	}
	r.crawl = time.Since(t0)
	if layers != nil {
		layers.crawl = crawlMark.since()
	}
	w = nil

	if r.edt, err = verifyEDT(path); err != nil || !analyze {
		return r, err
	}

	t0 = time.Now()
	analyzeMark := markUsage()
	simMark := core.SweepTimingsSnapshot()
	h = tr.begin("edonkey.LoadStudyStream", -1, root)
	study, err := edonkey.LoadStudyStream(path)
	tr.end(h)
	if err != nil {
		return r, err
	}
	study.SetWorkers(cfg.workers)
	h = tr.begin("analysis.FullSuite", -1, root)
	suite := study.Suite(cfg.seed)
	tr.end(h)
	h = tr.begin("analysis.Render", -1, root)
	r.digest, err = suiteDigest(suite)
	tr.end(h)
	if err != nil {
		return r, err
	}
	r.experiments = len(suite)
	r.analyze = time.Since(t0)
	if layers != nil {
		layers.analyze = analyzeMark.since()
		layers.sim = core.SweepTimingsSnapshot().Sub(simMark)
	}
	return r, nil
}

// crawlToEDT crawls the world day by day straight into an .edt file,
// the way edcrawl does. Traced, it records one span per crawled day
// (from the crawler's Progress hook) with the sink's AppendDay as its
// child, and a span around the writer's Finish.
func crawlToEDT(w *workload.World, days int, path string, tr *tracer, root int32) (crawler.Stats, error) {
	h := tr.begin("crawler.RunStream", -1, root)
	defer tr.end(h)
	c, err := crawler.New(w, crawler.DefaultConfig())
	if err != nil {
		return crawler.Stats{}, err
	}
	f, err := os.Create(path)
	if err != nil {
		return crawler.Stats{}, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	ew, err := trace.NewEDTWriter(bw)
	if err != nil {
		f.Close()
		return crawler.Stats{}, err
	}
	var sink trace.DaySink = ew
	if tr != nil {
		ts := &timedSink{next: ew, tr: tr, last: -1}
		sink = ts
		mark := time.Now()
		c.Progress = func(day, _ int) {
			now := time.Now()
			d := tr.add("crawler.day", int64(day), h, mark, now)
			if ts.last >= 0 {
				tr.spans[ts.last].parent = d
				ts.last = -1
			}
			mark = now
		}
	}
	if err := c.RunStream(days, sink); err != nil {
		f.Close()
		return c.Stats, err
	}
	files, peers := c.Meta()
	fh := tr.begin("trace.Finish", -1, h)
	err = ew.Finish(files, peers)
	if err == nil {
		err = bw.Flush()
	}
	tr.end(fh)
	if err != nil {
		f.Close()
		return c.Stats, err
	}
	return c.Stats, f.Close()
}

// timedSink wraps the .edt writer's AppendDay in a span; the crawler's
// Progress hook, which runs right after, adopts it as the day's child.
type timedSink struct {
	next trace.DaySink
	tr   *tracer
	last int32
}

func (s *timedSink) AppendDay(d *trace.DaySnapshot) error {
	h := s.tr.begin("trace.AppendDay", int64(d.Day), -1)
	err := s.next.AppendDay(d)
	s.tr.end(h)
	s.last = h
	return err
}

func verifyEDT(path string) (trace.EDTVerifyReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.EDTVerifyReport{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return trace.EDTVerifyReport{}, err
	}
	rep, err := trace.VerifyEDT(f, fi.Size())
	if err != nil {
		return rep, fmt.Errorf("edt verify: %w", err)
	}
	return rep, nil
}

// suiteDigest renders every experiment, in suite order, into one SHA-256.
func suiteDigest(suite []analysis.Experiment) (string, error) {
	h := sha256.New()
	for _, exp := range suite {
		fmt.Fprintf(h, "== %s\n", exp.ID())
		if err := exp.Render(h); err != nil {
			return "", fmt.Errorf("render %s: %w", exp.ID(), err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runPipelinePhase runs the pipeline iterations, checks their outputs
// and records the pipeline's metrics. Traced, it runs one traced
// iteration plus the separate world-step and static-suite passes.
func runPipelinePhase(rep *report, cfg pipelineConfig, workDir string, tr *tracer) error {
	path := filepath.Join(workDir, "pipeline.edt")
	defer os.Remove(path)
	crawls, analyses := cfg.crawls, cfg.analyses
	var layers *pipelineLayers
	if tr != nil {
		crawls, analyses, layers = 1, 1, &pipelineLayers{}
	}
	var builds, crawlTimes, analyzeTimes, rss []float64
	var last, prev pipelineRun
	for i := 0; i < crawls; i++ {
		// Reset the peak-RSS mark so each iteration reports its own
		// peak; where the kernel refuses, the peaks are cumulative.
		os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
		analyze := i < analyses
		r, err := runPipeline(cfg, path, analyze, tr, layers)
		if err != nil {
			return err
		}
		rep.Attempted++
		if msg := checkPipeline(cfg, r, prev); msg != "" {
			rep.Failed++
			rep.fail("pipeline iteration %d: %s", i, msg)
		}
		builds = append(builds, r.build.Seconds())
		crawlTimes = append(crawlTimes, r.crawl.Seconds())
		last = r
		if analyze {
			peak, err := vmHWM("self")
			if err != nil {
				return err
			}
			rss = append(rss, peak)
			analyzeTimes = append(analyzeTimes, r.analyze.Seconds())
			prev = r
		}
		fmt.Printf("pipeline: iteration %d build %.3fs crawl %.3fs analyze %.3fs digest %s\n",
			i, r.build.Seconds(), r.crawl.Seconds(), r.analyze.Seconds(), r.digest)
	}
	for len(builds) < cfg.builds {
		t0 := time.Now()
		if _, err := workload.New(cfg.worldConfig()); err != nil {
			return err
		}
		builds = append(builds, time.Since(t0).Seconds())
	}
	// Stage times are the fastest iteration's, as benchjson keeps the
	// fastest repetition: on a shared host, other guests slow a whole
	// multi-second stage by up to half at random, and the minimum
	// filters that out.
	rep.set("pipeline_rss_mb", median(rss), "MB", len(rss))
	rep.set("crawl_s", slices.Min(crawlTimes), "s", len(crawlTimes))
	rep.set("analyze_s", slices.Min(analyzeTimes), "s", len(analyzeTimes))
	rep.set("workload.build_s", median(builds), "s", len(builds))
	if layers != nil {
		if err := pipelineLayerMetrics(rep, cfg, path, last, layers, tr); err != nil {
			return err
		}
	}
	return nil
}

// checkPipeline validates one iteration against the config and the
// previous analysed iteration (zero before the first); it returns ""
// when everything holds.
func checkPipeline(cfg pipelineConfig, r, prev pipelineRun) string {
	switch {
	case r.edt.Days != cfg.days || r.edt.Truncated:
		return fmt.Sprintf("edt holds %d days (truncated=%v), want %d", r.edt.Days, r.edt.Truncated, cfg.days)
	case r.stats.Snapshots == 0 || r.edt.Postings == 0:
		return "crawl recorded no snapshots"
	case r.digest == "":
		return "" // a crawl-only iteration
	case r.experiments != len(analysis.SuiteIDs()):
		return fmt.Sprintf("suite rendered %d experiments, want %d", r.experiments, len(analysis.SuiteIDs()))
	case prev.digest != "" && r.digest != prev.digest:
		return "suite digest differs between iterations"
	case cfg == defaultPipeline() && r.digest != pinnedDigest:
		return fmt.Sprintf("suite digest %s, pinned %s", r.digest, pinnedDigest)
	}
	return ""
}

// pipelineLayerMetrics derives the traced pass's per-layer metrics and
// runs the two separate passes: World.Step on a same-config world, and
// the suite restricted to its static (non-simulation) experiments over
// the traced iteration's .edt file at path.
func pipelineLayerMetrics(rep *report, cfg pipelineConfig, path string, r pipelineRun, l *pipelineLayers, tr *tracer) error {
	root := tr.begin("separate-passes", -1, -1)
	w, err := workload.New(cfg.worldConfig())
	if err != nil {
		return err
	}
	var steps time.Duration
	for d := 1; d < cfg.days; d++ {
		h := tr.begin("workload.Step", int64(d), root)
		w.Step()
		tr.end(h)
		steps += tr.spans[h].end - tr.spans[h].start
	}
	w = nil

	study, err := edonkey.LoadStudyStream(path)
	if err != nil {
		return err
	}
	study.SetWorkers(cfg.workers)
	var static []string
	for _, id := range analysis.SuiteIDs() {
		if !slices.Contains(simulationIDs, id) {
			static = append(static, id)
		}
	}
	h := tr.begin("analysis.FullSuite.static", -1, root)
	study.SuiteSubset(cfg.seed, static)
	tr.end(h)
	tr.end(root)

	lt := tr.layerTimes(0)
	days := lt["crawler.day"]
	sink := lt["trace.AppendDay"]
	fin := lt["trace.Finish"]
	crawlerSelf := days.total - sink.total - steps
	rep.set("workload.step_s", steps.Seconds()/float64(cfg.days-1), "s", cfg.days-1)
	rep.set("crawler.day_s", crawlerSelf.Seconds()/float64(days.count), "s", days.count)
	rep.set("crawler.snapshots", float64(r.stats.Snapshots), "count", 1)
	rep.set("crawler.browse_ok_ratio", float64(r.stats.Snapshots)/float64(max(1, r.stats.BrowseAttempts)), "ratio", r.stats.BrowseAttempts)
	rep.set("trace.encode_s", (sink.total + fin.total).Seconds(), "s", sink.count+fin.count)
	rep.set("trace.edt_bytes_per_peer_day", float64(r.edt.Size)/float64(cfg.peers*cfg.days), "B", 1)
	rep.set("trace.load_s", lt["edonkey.LoadStudyStream"].total.Seconds(), "s", 1)
	rep.set("analysis.static_s", lt["analysis.FullSuite.static"].total.Seconds(), "s", 1)
	rep.set("core.prestate_s", l.sim.Prestate.Seconds(), "s", int(l.sim.Prestates))
	rep.set("core.eval_s", l.sim.Eval.Seconds(), "s", int(l.sim.Points))
	rep.set("core.commit_s", l.sim.Commit.Seconds(), "s", int(l.sim.Points))
	rep.set("core.reeval_ratio", float64(l.sim.Reevaluated)/float64(max(1, l.sim.Events)), "ratio", int(l.sim.Events))
	rep.set("core.events", float64(l.sim.Events), "count", 1)
	procs := float64(runtime.GOMAXPROCS(0))
	rep.set("runner.crawl_cpu_util", l.crawl.cpu.Seconds()/(l.crawl.wall.Seconds()*procs), "ratio", 1)
	rep.set("runner.analyze_cpu_util", l.analyze.cpu.Seconds()/(l.analyze.wall.Seconds()*procs), "ratio", 1)
	rep.set("gc.crawl_alloc_bytes", float64(l.crawl.allocBytes), "B", 1)
	rep.set("gc.crawl_cycles", float64(l.crawl.gcCycles), "count", 1)
	rep.set("gc.analyze_alloc_bytes", float64(l.analyze.allocBytes), "B", 1)
	rep.set("gc.analyze_cycles", float64(l.analyze.gcCycles), "count", 1)
	return nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
