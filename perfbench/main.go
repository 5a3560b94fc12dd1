// Command perfbench is the repository's end-to-end benchmark: it boots
// mvpearsd on a quick-scale model trained from this source tree, drives
// it over loopback HTTP and WebSocket with one workload's traffic, checks
// every served verdict against the float full-ensemble System.Detect
// oracle, and prints the workload's metrics. With --trace 1 it also
// replays the workload's inputs through the layers in-process and prints
// a per-layer self-time table. See README.md.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this program and the daemon first:
//
//	bash perfbench/run.sh --workload miss-mix --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mvpears"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, notes and check failures.
type report struct {
	metrics   map[string]metric
	order     []string
	notes     map[string]string
	extra     []string
	failures  []string
	attempted int
	failed    int
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, unit, note string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// setP records a percentile with its sample count; one without enough
// samples beyond it is reported as 0 with the reason.
func (r *report) setP(name string, p pct, unit string) {
	if !p.OK {
		r.set(name, 0, unit, fmt.Sprintf("not reported: n=%d leaves fewer than %d samples beyond it", p.N, minTail))
		return
	}
	r.set(name, p.Value, unit, fmt.Sprintf("n=%d", p.N))
}

func (r *report) note(s string)    { r.extra = append(r.extra, s) }
func (r *report) failure(s string) { r.failures = append(r.failures, s) }

// env is one benchmark run.
type env struct {
	start    time.Time
	workload string
	seed     int64
	seconds  time.Duration
	conns    int
	work     string

	sys    *mvpears.System // float, full ensemble: the oracle
	model  string
	fp     string
	d      *daemon
	client *http.Client
	rng    *rand.Rand
	src    *source
	rep    *report

	served  []exchange
	nom     *nominalRun
	clips   []*clipRun
	rawP50  float64 // unscaled latency_p50_ms, for the layer residual
	bootLog []string
}

// stage logs the run's progress to standard error.
func (e *env) stage(what string) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.1fs %s\n", time.Since(e.start).Seconds(), what)
}

func (e *env) detectURL() string { return "http://" + e.d.addr + "/v1/detect" }

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) error{
	"miss-mix":    (*env).runMissMix,
	"hot-replay":  (*env).runHotReplay,
	"stream-live": (*env).runStreamLive,
}

// endToEnd names the metrics of the final JSON line with --trace 0, and
// perLayerNames those with --trace 1; BENCHMARK.json lists the same.
var endToEnd = []string{"setup_s", "latency_p50_ms", "cpu_ms_per_op", "rss_peak_mb", "accuracy"}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "miss-mix, hot-replay or stream-live")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := fs.Int("seconds", 15, "seconds the timed phases measure")
	trace := fs.Int("trace", 0, "1: also replay the inputs through the layers and report per-layer metrics")
	root := fs.String("root", ".", "repository root the daemon was built from")
	work := fs.String("work", ".bench_build/perfbench", "directory for the model artifact, AE cache, logs and spans")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	run, ok := workloads[*wl]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (miss-mix, hot-replay, stream-live), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	e := &env{
		workload: *wl, seed: *seed, seconds: time.Duration(*secs) * time.Second,
		start: time.Now(), conns: runtime.NumCPU(), work: *work, rng: rand.New(rand.NewSource(*seed)), rep: newReport(),
	}
	out, err := e.main(*root, run, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(out)
}

// main runs the workload and returns the final JSON line.
func (e *env) main(root string, run func(*env) error, trace bool) (string, error) {
	srcHash, err := sourceHash(root)
	if err != nil {
		return "", err
	}
	if e.model, err = ensureModel(e.work, srcHash); err != nil {
		return "", err
	}
	if e.fp, err = fileSHA256(e.model); err != nil {
		return "", err
	}
	if e.sys, err = mvpears.Open(e.model); err != nil {
		return "", err
	}
	aes, err := craftAEs(e.sys, e.fp, e.work)
	if err != nil {
		return "", err
	}
	e.src = newSource(e.sys, e.seed, aes)
	e.stage("model and crafted AEs ready")
	// Past the one-time preparation a run takes about a minute; one that
	// hangs (a daemon that stops answering a stream) ends here, and the
	// daemon dies with this process.
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})
	defer watchdog.Stop()

	// setup_s: the median of three boots; the last one serves the run.
	const boots = 3
	var setups []float64
	logPath := filepath.Join(e.work, "mvpearsd-"+e.workload+".log")
	for i := 0; i < boots; i++ {
		d, setup, err := startDaemon(filepath.Join(e.work, "mvpearsd"), e.model, logPath)
		if err != nil {
			return "", err
		}
		setups = append(setups, setup.Seconds())
		if i < boots-1 {
			if err := d.stop(); err != nil {
				return "", err
			}
			continue
		}
		e.d = d
	}
	defer e.d.stop()
	e.rep.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d boots: %s", boots, fmtList(setups, "%.3f")))
	if e.bootLog, err = e.d.bootLog(); err != nil {
		return "", err
	}
	info, err := e.d.infoz()
	if err != nil {
		return "", err
	}
	if info.ModelFingerprint != e.fp {
		return "", fmt.Errorf("daemon serves model %s, benchmark loaded %s", info.ModelFingerprint, e.fp)
	}
	prov := newProvenance(srcHash, e.fp, e.workload, e.seed, info.GOMAXPROCS)
	e.client = newClient(e.conns)

	e.stage("daemon booted")
	var probes []float64
	for i := 0; i < probeRuns; i++ {
		probes = append(probes, ms(machineProbe(e.conns)))
	}
	if err := run(e); err != nil {
		return "", err
	}
	e.stage("workload done")
	for i := 0; i < probeRuns; i++ {
		probes = append(probes, ms(machineProbe(e.conns)))
	}
	e.normalize(median(probes), probes)
	rss, err := e.d.peakRSS()
	if err != nil {
		return "", err
	}
	e.rep.set("rss_peak_mb", rss, "MB", "daemon VmHWM")
	if err := e.d.stop(); err != nil {
		e.rep.failure("daemon shutdown: " + err.Error())
	}
	e.client.CloseIdleConnections()

	mismatches, err := e.checkOracle()
	if err != nil {
		return "", err
	}
	e.stage("oracle checked")
	e.rep.set("verdict_mismatch", float64(mismatches), "count", fmt.Sprintf("of %d served verdicts", len(e.served)))
	e.rep.set("fail_ratio", float64(e.rep.failed)/float64(max(e.rep.attempted, 1)), "fraction",
		fmt.Sprintf("%d of %d operations", e.rep.failed, e.rep.attempted))

	keys := endToEnd
	if trace {
		if err := e.replay(); err != nil {
			return "", err
		}
		keys = perLayerNames(engineNames)
		e.stage("replay done")
	}
	if err := e.print(prov); err != nil {
		return "", err
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(e.rep.failures) == 0, Attempted: e.rep.attempted, Failed: e.rep.failed, Metrics: map[string]metric{}}
	for _, k := range keys {
		m, ok := e.rep.metrics[k]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", k)
		}
		final.Metrics[k] = m
	}
	b, err := json.Marshal(final)
	return string(b), err
}

// runLimit bounds a run after its one-time preparation.
const runLimit = 170 * time.Second

// probeRefMS is the machine probe's time on the reference machine (a
// 2-CPU Xeon, typical of the box the bounds were set on).
const probeRefMS = 32.0

// probeRuns is how many probes run before and after the timed phases;
// their median shrugs off the one-in-ten probe a brief stall doubles.
const probeRuns = 5

// normalize rescales the end-to-end time and rate metrics to the
// reference machine speed. The benchmark runs on shared machines whose
// speed drifts by ±10-20% over minutes, which would swamp any bound; the
// probe, run just before and after the timed phases, measures that
// speed with code the program under test does not contain, so a change
// to the program moves the scaled metrics and a slower machine does not.
// The raw values stay in the printed notes.
func (e *env) normalize(probeMS float64, probes []float64) {
	scale := probeRefMS / probeMS
	e.rawP50 = e.rep.metrics["latency_p50_ms"].Value
	e.rep.set("machine.probe_ms", probeMS, "ms", fmt.Sprintf("median of %s; end-to-end times scaled by %.4f", fmtList(probes, "%.1f"), scale))
	for _, name := range []string{"setup_s", "latency_p50_ms", "latency_p99_ms", "cpu_ms_per_op", "sustained_rps"} {
		m := e.rep.metrics[name]
		f := scale
		if name == "sustained_rps" {
			f = 1 / scale
		}
		note := fmt.Sprintf("raw %.6g %s", m.Value, m.Unit)
		if old := e.rep.notes[name]; old != "" {
			note += "; " + old
		}
		e.rep.set(name, m.Value*f, m.Unit, note)
	}
}

// checkOracle runs the float full-ensemble System.Detect once on every
// distinct recording the daemon answered for and counts served verdicts
// that differ.
func (e *env) checkOracle() (int, error) {
	var todo []*item
	sums := map[*item][32]byte{}
	byContent := map[[32]byte]*item{}
	for _, x := range e.served {
		if _, ok := sums[x.it]; ok {
			continue
		}
		sum := sha256.Sum256(x.it.pcm)
		sums[x.it] = sum
		if _, ok := byContent[sum]; !ok {
			byContent[sum] = x.it
			todo = append(todo, x.it)
		}
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := 0
	for w := 0; w < e.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(todo) || firstErr != nil {
					mu.Unlock()
					return
				}
				it := todo[next]
				next++
				mu.Unlock()
				det, err := e.sys.Detect(it.clip())
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("oracle on item %d: %w", it.id, err)
				}
				it.oracle = det
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	for it, sum := range sums {
		it.oracle = byContent[sum].oracle
	}
	int8 := quantizedEngines(e.bootLog)
	mismatches, flips, int8Flips := 0, 0, 0
	for _, x := range e.served {
		if x.det.Adversarial == x.it.oracle.Adversarial {
			continue
		}
		mismatches++
		var what string
		switch {
		case int8Divergence(x, int8):
			int8Flips++
			what = "int8 transcription differs from float"
		case shortCircuitFlip(x):
			flips++
			what = "cascade short-circuit"
		default:
			what = "UNEXPLAINED"
			e.rep.failure(fmt.Sprintf("served verdict of item %d differs from the oracle with no named cause", x.it.id))
		}
		if mismatches <= 5 {
			e.rep.note(fmt.Sprintf("verdict mismatch (%s): item %d (%s) served adversarial=%v, oracle %v; served %v, oracle %v",
				what, x.it.id, x.it.kind, x.det.Adversarial, x.it.oracle.Adversarial, x.det.Transcriptions, x.it.oracle.Transcriptions))
		}
	}
	e.rep.set("detector.short_circuit_flips", float64(flips), "count",
		"served verdicts where a cascade short-circuit answered benign and the full ensemble says adversarial")
	e.rep.set("nn.int8_flips", float64(int8Flips), "count",
		"served verdicts that differ from the oracle after an int8 engine heard something else than its float model")
	return mismatches, nil
}

// The two named exceptions to oracle agreement. Both are documented
// approximations of the accelerated path that the program claims never
// change a verdict; live speech shows they do. They are counted
// (verdict_mismatch, detector.short_circuit_flips, nn.int8_flips) and
// listed, but do not make the run incorrect. Any other disagreement
// (a streamed final, an escalated or sampled verdict whose engines all
// heard what their float models hear, either direction) does.

// shortCircuitFlip: the cascade answered benign from a partial vector
// whose margin was calibrated on training vectors only.
func shortCircuitFlip(x exchange) bool {
	c := x.det.Cascade
	return c != nil && c.ShortCircuit && !x.det.Adversarial && x.it.oracle.Adversarial
}

// int8Divergence: an int8 engine's served transcription differs from
// its float model's, which the boot-time parity gate checks on its own
// corpus only.
func int8Divergence(x exchange, int8 []string) bool {
	for _, name := range int8 {
		got, ran := x.det.Transcriptions[name]
		if ran && got != "" && got != x.it.oracle.Transcriptions[name] {
			return true
		}
	}
	return false
}

// quantizedEngines reads the engines the daemon switched to int8 from
// its boot log ("int8 inference enabled for [DS0 DS1 GCS] ...").
func quantizedEngines(bootLog []string) []string {
	const marker = "int8 inference enabled for ["
	for _, l := range bootLog {
		if i := strings.Index(l, marker); i >= 0 {
			rest := l[i+len(marker):]
			if j := strings.IndexByte(rest, ']'); j >= 0 {
				return strings.Fields(rest[:j])
			}
		}
	}
	return nil
}

// print writes the human-readable part of the output: provenance, the
// metrics with units and notes, and the run's notes and failures.
func (e *env) print(prov provenance) error {
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(e.work, "provenance-"+e.workload+".json"), append(pj, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", pj)
	for _, l := range e.bootLog {
		fmt.Printf("daemon boot: %s\n", l)
	}
	names := append([]string(nil), e.rep.order...)
	sort.SliceStable(names, func(i, j int) bool { return !strings.Contains(names[i], ".") && strings.Contains(names[j], ".") })
	for _, n := range names {
		m := e.rep.metrics[n]
		note := e.rep.notes[n]
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Printf("%-34s %14.6g %-8s%s\n", n, m.Value, m.Unit, note)
	}
	for _, l := range e.rep.extra {
		fmt.Println(l)
	}
	for _, f := range e.rep.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	return nil
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
