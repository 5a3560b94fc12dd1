package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"mvpears"
	"mvpears/internal/asr"
	"mvpears/internal/classify"
	"mvpears/internal/detector"
)

// trainSeed fixes the quick-scale model the benchmark serves, so every
// checkout of the same source trains the same artifact.
const trainSeed = 1

// sourceHash identifies the program source under test: a SHA-256 over
// every go.mod and .go file under root, in path order. Hidden (build)
// directories and the benchmark's own directory are skipped, so editing
// the benchmark does not retrain the model.
func sourceHash(root string) (string, error) {
	var paths []string
	bench := filepath.Join(root, "perfbench")
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || p == bench) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ensureModel returns the path of the quick-scale artifact trained from
// this source tree, training and saving it on first use.
func ensureModel(work, srcHash string) (string, error) {
	path := filepath.Join(work, "model-"+srcHash[:16]+".gob")
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	fmt.Fprintln(os.Stderr, "perfbench: training the quick-scale model artifact (first run in this checkout)")
	sys, err := mvpears.Build(mvpears.WithQuickScale(), mvpears.WithSeed(trainSeed))
	if err != nil {
		return "", fmt.Errorf("training model: %w", err)
	}
	tmp := path + ".tmp"
	if err := sys.SaveFile(tmp); err != nil {
		return "", err
	}
	return path, os.Rename(tmp, path)
}

// fileSHA256 returns the hex SHA-256 of a file: the model fingerprint
// the daemon keys its verdict cache with.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// artifactSnap mirrors the artifact's gob layout (mvpears.systemSnap);
// gob matches fields by name.
type artifactSnap struct {
	Version     int
	Engines     []byte
	Auxiliaries []mvpears.EngineID
	Classifier  string
	BenignX     [][]float64
	AEX         [][]float64
}

// layers is the artifact opened at layer granularity for the traced
// replay: the engine set and detector the daemon builds, in the same
// accelerator state (int8 engines behind the same parity gate).
type layers struct {
	engines   *asr.EngineSet
	det       *detector.Detector
	fill      *classify.PartialFill
	benignX   [][]float64
	aeX       [][]float64
	quantized []asr.EngineID
}

// openLayers loads the artifact the way mvpears.Read does and applies
// the daemon's -quantized gate.
func openLayers(path string) (*layers, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap artifactSnap
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding artifact: %w", err)
	}
	if snap.Classifier != "svm" {
		return nil, fmt.Errorf("artifact classifier %q: the benchmark trains svm artifacts only", snap.Classifier)
	}
	engines, err := asr.Load(bytes.NewReader(snap.Engines))
	if err != nil {
		return nil, err
	}
	aux := make([]asr.Recognizer, 0, len(snap.Auxiliaries))
	for _, id := range snap.Auxiliaries {
		rec, err := engines.Get(id)
		if err != nil {
			return nil, err
		}
		aux = append(aux, rec)
	}
	det, err := detector.New(engines.DS0, aux)
	if err != nil {
		return nil, err
	}
	det.Classifier = classify.NewSVM()
	if err := det.Train(snap.BenignX, snap.AEX); err != nil {
		return nil, err
	}
	fill, err := classify.FitPartialFill(snap.BenignX)
	if err != nil {
		return nil, err
	}
	enabled, _, err := engines.EnableQuantized(nil)
	if err != nil {
		return nil, err
	}
	return &layers{engines: engines, det: det, fill: fill, benignX: snap.BenignX, aeX: snap.AEX, quantized: enabled}, nil
}

// provenance is the machine and build record printed with every run.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"daemon_gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Model      string `json:"model_fingerprint"`
	TrainSeed  int64  `json:"train_seed"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"workload_seed"`
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
var cpuModel = sync.OnceValue(func() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
})

// commit is the VCS revision stamped into the build, when the tree was a
// git checkout; otherwise the source hash identifies the code.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built in a git checkout; see source_sha256)"
}

func newProvenance(srcHash, fp, wl string, seed int64, gomaxprocs int) provenance {
	return provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: gomaxprocs, CPUModel: cpuModel(),
		GoVersion: runtime.Version(), Commit: commit(), SourceHash: srcHash,
		Model: fp, TrainSeed: trainSeed, Workload: wl, Seed: seed,
	}
}
