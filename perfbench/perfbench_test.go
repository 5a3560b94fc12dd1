package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/bits"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"mvpears/internal/audio"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p := percentile(xs, 0.99)
	if !p.OK || p.Value != 990 || p.N != 1000 {
		t.Fatalf("p99 of 1..1000 = %+v, want 990 with 10 beyond", p)
	}
	if p := percentile(xs[:999], 0.99); p.OK {
		t.Fatalf("p99 of 999 samples leaves 9 beyond but was reported: %+v", p)
	}
	if p := percentile(xs[:20], 0.5); !p.OK || p.Value != 10 {
		t.Fatalf("p50 of 1..20 = %+v, want 10 with 10 beyond", p)
	}
	if p := percentile(xs[:19], 0.5); p.OK {
		t.Fatalf("p50 of 19 samples leaves 9 beyond but was reported: %+v", p)
	}
	if p := percentile(nil, 0.5); p.OK || p.N != 0 {
		t.Fatalf("percentile of nothing = %+v", p)
	}
	shuffled := []float64{5, 1, 4, 2, 3}
	if m := median(shuffled); m != 3 {
		t.Fatalf("median = %v, want 3", m)
	}
	if shuffled[0] != 5 {
		t.Fatal("median sorted its input in place")
	}
}

func TestOpenLoopChargesWaitToLateness(t *testing.T) {
	const work = 30 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		time.Sleep(work)
	}))
	defer srv.Close()
	client := newClient(1)
	reqs := []request{{parts: [][]byte{[]byte("a")}, due: 0}, {parts: [][]byte{[]byte("b")}, due: 0}}
	shots := openLoop(context.Background(), client, srv.URL, reqs, 1)
	for i, s := range shots {
		if !s.ok() {
			t.Fatalf("shot %d failed: %v %d", i, s.err, s.status)
		}
		if s.latency() != s.done-s.due || s.late() != s.sent-s.due {
			t.Fatalf("shot %d: latency/lateness not timed from the due time: %+v", i, s)
		}
	}
	// One connection: the second request waits for the first to finish.
	if late := shots[1].late(); late < work*8/10 {
		t.Fatalf("second request was only %v late behind a %v request", late, work)
	}
	if lat := shots[1].latency(); lat < shots[1].late()+work*8/10 {
		t.Fatalf("second request latency %v does not include its %v wait", lat, shots[1].late())
	}
}

// steady builds a step of n shots over dur answered in answer, with
// lateness growing by growth seconds per second of schedule.
func steady(n int, dur, answer time.Duration, growth float64) []shot {
	shots := make([]shot, n)
	for i := range shots {
		due := time.Duration(i) * dur / time.Duration(n)
		late := time.Duration(growth * float64(due))
		shots[i] = shot{due: due, sent: due + late, done: due + late + answer, status: http.StatusOK}
	}
	return shots
}

func TestJudgeStep(t *testing.T) {
	if r := judgeStep(100, steady(100, time.Second, 5*time.Millisecond, 0)); !r.pass || r.good != 100 {
		t.Fatalf("steady step failed: %+v", r)
	}
	if r := judgeStep(100, steady(100, time.Second, 5*time.Millisecond, 0.1)); r.pass {
		t.Fatalf("a backlog growing 100 ms/s passed: %+v", r)
	}
	burst := steady(100, time.Second, 5*time.Millisecond, 0)
	for i := 40; i < 45; i++ { // one stall delays a few requests
		burst[i].sent += 60 * time.Millisecond
		burst[i].done += 60 * time.Millisecond
	}
	if r := judgeStep(100, burst); !r.pass {
		t.Fatalf("a short stall failed the step: %+v", r)
	}
	slow := steady(100, time.Second, 5*time.Millisecond, 0)
	slow[10].done += sloLatency
	slow[20].done += sloLatency
	if r := judgeStep(100, slow); r.pass || r.good != 98 {
		t.Fatalf("2%% over the SLO passed: %+v", r)
	}
	failed := steady(100, time.Second, 5*time.Millisecond, 0)
	failed[5].status = http.StatusTooManyRequests
	if r := judgeStep(100, failed); !r.pass || r.good != 99 {
		t.Fatalf("one refusal in 100 should miss but still pass at 99%%: %+v", r)
	}
}

func TestSearchLadder(t *testing.T) {
	rates := ladder(100, 1000, 1.05)
	if rates[0] != 100 || rates[len(rates)-1] > 1000 || len(rates) != 48 || bits.Len(uint(len(rates))) != 6 {
		t.Fatalf("ladder = %d rates from %v to %v", len(rates), rates[0], rates[len(rates)-1])
	}
	for _, capacity := range []float64{100, 339, 340, 999, 1000} {
		var tried []float64
		best, steps, err := searchLadder(rates, func(r float64) (stepResult, error) {
			tried = append(tried, r)
			return stepResult{rate: r, pass: r <= capacity, goodput: r}, nil
		})
		if err != nil {
			t.Fatalf("capacity %v: %v", capacity, err)
		}
		want := 0.0
		for _, r := range rates {
			if r <= capacity {
				want = r
			}
		}
		if best.rate != want {
			t.Fatalf("capacity %v: found %v, want %v (tried %v)", capacity, best.rate, want, tried)
		}
		if len(steps) != len(tried) || len(steps) > 6 {
			t.Fatalf("capacity %v: %d steps for a %d-rate ladder", capacity, len(steps), len(rates))
		}
	}
	if _, _, err := searchLadder(rates, func(r float64) (stepResult, error) { return stepResult{rate: r}, nil }); err == nil {
		t.Fatal("a ladder where every step fails reported a sustained rate")
	}
}

const exposition = `# HELP mvpears_rejected_total Deliberate load-shed rejections.
# TYPE mvpears_rejected_total counter
mvpears_rejected_total{reason="queue_full"} 3
mvpears_rejected_total{reason="stream_sessions"} 1
mvpears_cache_hits_total 10
mvpears_cache_hits_total_extra 99
mvpears_cascade_engines_run_sum 7
mvpears_cascade_engines_run_count 4
mvpears_requests_total{route="detect",code="200"} 5
mvpears_requests_total{route="detect",code="429"} 2
`

func TestPromDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(strings.NewReplacer(
		`"queue_full"} 3`, `"queue_full"} 8`,
		"mvpears_cache_hits_total 10", "mvpears_cache_hits_total 25",
		"engines_run_sum 7", "engines_run_sum 11",
		"engines_run_count 4", "engines_run_count 6",
		`code="200"} 5`, `code="200"} 9`,
	).Replace(exposition)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"mvpears_rejected_total", []string{`reason="queue_full"`}, 5},
		{"mvpears_rejected_total", []string{`reason="stream_sessions"`}, 0},
		{"mvpears_rejected_total", nil, 5},
		{"mvpears_cache_hits_total", nil, 15},
		{"mvpears_cascade_engines_run_sum", nil, 4},
		{"mvpears_cascade_engines_run_count", nil, 2},
		{"mvpears_requests_total", []string{`code="200"`}, 4},
		{"mvpears_requests_total", []string{`route="detect"`, `code="429"`}, 0},
	} {
		got, err := delta(before, after, c.name, c.labels...)
		if err != nil || got != c.want {
			t.Errorf("delta %s%v = %v, %v; want %v", c.name, c.labels, got, err, c.want)
		}
	}
	if _, err := delta(after, before, "mvpears_cache_hits_total"); err == nil {
		t.Error("a counter going backwards was accepted")
	}
	if _, err := parseProm(strings.NewReader("mvpears_x notanumber\n")); err == nil {
		t.Error("a malformed value was accepted")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	at := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "request", Start: at(0), End: at(100), Parent: -1},
		{Name: "a", Start: at(10), End: at(30), Parent: 0},
		{Name: "b", Start: at(20), End: at(50), Parent: 0},  // overlaps a: 10..50 covered once
		{Name: "c", Start: at(90), End: at(120), Parent: 0}, // only 90..100 lies inside the parent
		{Name: "a.1", Start: at(12), End: at(18), Parent: 1},
		{Name: "other", Start: at(0), End: at(5), Parent: -1},
	}
	got := selfTimes(spans)
	want := []time.Duration{at(50), at(14), at(30), at(30), at(6), at(5)}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestContainersDecodeToTheSamePCM(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pcm := make([]byte, 2*3001)
	rng.Read(pcm)
	it := &item{rate: 8000, pcm: pcm}
	for v := 0; v < numContainers; v++ {
		var body bytes.Buffer
		for _, p := range it.upload(v) {
			body.Write(p)
		}
		got, err := audio.ReadWAVPCM(&body, 0, nil)
		if err != nil {
			t.Fatalf("container %d: %v", v, err)
		}
		if got.SampleRate != 8000 || !bytes.Equal(got.Data, pcm) {
			t.Fatalf("container %d decodes to %d Hz, %d bytes", v, got.SampleRate, len(got.Data))
		}
	}
}

// The final JSON line must carry exactly the metrics BENCHMARK.json lists.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.Name
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, the benchmark reports %v", got, endToEnd)
	}
	if got, want := names(spec.PerLayer), perLayerNames(engineNames); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json per_layer = %v, the benchmark reports %v", got, want)
	}
}
