package mvpears

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mvpears/internal/asr"
	"mvpears/internal/detector"
)

// systemSnap is the serialized form of a System: the engine models plus
// the detector's training features (feature matrices are tiny — one
// similarity vector per training sample — and refitting the classifier
// from them is deterministic and fast, so classifier internals are not
// stored).
type systemSnap struct {
	Version     int
	Engines     []byte
	Auxiliaries []EngineID
	Classifier  string
	BenignX     [][]float64
	AEX         [][]float64
}

const systemSnapVersion = 1

// Save writes the trained system (engine models + detector training
// features) to w. Load it back with Open/Read. The artifact bytes are
// hashed while streaming, so the system's ModelFingerprint matches the
// fingerprint a later Open of the same file will compute.
func (s *System) Save(w io.Writer) error {
	h := sha256.New()
	if err := s.save(io.MultiWriter(w, h)); err != nil {
		return err
	}
	s.setFingerprint(hex.EncodeToString(h.Sum(nil)), false)
	return nil
}

// save is the encoding body of Save, without fingerprint bookkeeping.
func (s *System) save(w io.Writer) error {
	if s.pools == nil {
		return fmt.Errorf("mvpears: system has no trained detector to save; call TrainDetector first")
	}
	var engines bytes.Buffer
	if err := s.engines.Save(&engines); err != nil {
		return err
	}
	snap := systemSnap{
		Version:    systemSnapVersion,
		Engines:    engines.Bytes(),
		Classifier: s.det.Classifier.Name(),
		BenignX:    columnsToRows(s.pools.Benign),
		AEX:        columnsToRows(s.pools.AE),
	}
	for _, aux := range s.det.Auxiliaries {
		snap.Auxiliaries = append(snap.Auxiliaries, EngineID(aux.Name()))
	}
	switch snap.Classifier {
	case "SVM":
		snap.Classifier = "svm"
	case "KNN":
		snap.Classifier = "knn"
	case "RandomForest":
		snap.Classifier = "forest"
	case "LogReg":
		snap.Classifier = "logreg"
	case "NaiveBayes":
		snap.Classifier = "bayes"
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("mvpears: encoding system: %w", err)
	}
	return nil
}

// SaveFile writes the system to a file (creating parent directories).
func (s *System) SaveFile(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("mvpears: creating model directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mvpears: creating %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("mvpears: closing %s: %w", path, cerr)
		}
	}()
	return s.Save(f)
}

// Read restores a system written by Save: engines are loaded and the
// classifier is refit from the stored training features. The artifact
// bytes are hashed as they stream past, giving the loaded system a
// ModelFingerprint that identifies exactly the bytes it was built from —
// two daemons loading the same file agree on the fingerprint (it survives
// restarts), and any change to the artifact changes it.
func Read(r io.Reader) (*System, error) {
	h := sha256.New()
	var snap systemSnap
	if err := gob.NewDecoder(io.TeeReader(r, h)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("mvpears: decoding system: %w", err)
	}
	if snap.Version != systemSnapVersion {
		return nil, fmt.Errorf("mvpears: model format version %d, want %d", snap.Version, systemSnapVersion)
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
	det.Classifier = newClassifier(snap.Classifier)
	sys := &System{engines: engines, det: det}
	pools, err := detector.ScorePools(snap.BenignX, snap.AEX)
	if err != nil {
		return nil, err
	}
	sys.pools = pools
	if err := det.Train(snap.BenignX, snap.AEX); err != nil {
		return nil, err
	}
	sys.setFingerprint(hex.EncodeToString(h.Sum(nil)), true)
	return sys, nil
}

// ModelFingerprint returns a hex SHA-256 identifying the exact model
// artifact this system was loaded from (or would produce if saved now).
// Systems restored by Open/Read carry the hash of the file bytes, so the
// fingerprint is stable across daemon restarts; a system trained
// in-process computes it lazily by hashing its own encoding. The serving
// layer prefixes verdict-cache keys with this value so a cache can never
// return verdicts produced by a different model.
func (s *System) ModelFingerprint() (string, error) {
	s.fpMu.Lock()
	defer s.fpMu.Unlock()
	if s.fp != "" {
		return s.fp, nil
	}
	h := sha256.New()
	if err := s.save(h); err != nil {
		return "", err
	}
	s.fp = hex.EncodeToString(h.Sum(nil))
	return s.fp, nil
}

// setFingerprint records the artifact hash. Loading (force) always wins:
// a loaded system's identity is the file it came from. Saving only fills
// an unset fingerprint — re-encoding a loaded artifact need not reproduce
// its bytes (one written by an older format revision re-encodes in the
// current one), and changing an in-use fingerprint would silently split
// a serving cache keyed on it.
func (s *System) setFingerprint(fp string, force bool) {
	s.fpMu.Lock()
	if force || s.fp == "" {
		s.fp = fp
	}
	s.fpMu.Unlock()
}

// Open restores a system from a file written by SaveFile.
func Open(path string) (*System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mvpears: opening %s: %w", path, err)
	}
	defer f.Close()
	sys, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("mvpears: loading %s: %w", path, err)
	}
	return sys, nil
}

// columnsToRows converts per-auxiliary score pools (columns) back into
// per-sample feature vectors (rows).
func columnsToRows(cols [][]float64) [][]float64 {
	if len(cols) == 0 {
		return nil
	}
	n := len(cols[0])
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		v := make([]float64, len(cols))
		for j := range cols {
			v[j] = cols[j][i]
		}
		rows[i] = v
	}
	return rows
}
