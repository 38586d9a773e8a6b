package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"hydrac"
	"hydrac/internal/faultfs"
)

// snapshotVersion guards the snapshot format; bump on incompatible
// change and teach readSnapshot both shapes. Optional fields that an
// older reader may ignore (periods) do not bump it.
const snapshotVersion = 1

// snapshotFile is the on-disk shape of snap-<gen>.json: the fully
// placed task set in the standard task-file format, plus the next-fit
// placement cursor that made those placements (recovery must restore
// it for future placements to stay byte-identical).
type snapshotFile struct {
	Version int             `json:"version"`
	NextFit int             `json:"next_fit"`
	Set     json.RawMessage `json:"set"`
	// Periods maps security-task name → the period the set was
	// committed with; absent when that state was unschedulable. They
	// are recovery hints (hydrac.SessionConfig.Hints), verified before
	// use, so a missing or wrong entry costs a search, never a
	// different result.
	Periods map[string]hydrac.Time `json:"periods,omitempty"`
}

// periodMap keys a committed selection by task name: periods aligned
// with sec, nil (unschedulable) giving nil.
func periodMap(sec []hydrac.SecurityTask, periods []hydrac.Time) map[string]hydrac.Time {
	if periods == nil {
		return nil
	}
	m := make(map[string]hydrac.Time, len(sec))
	for i, s := range sec {
		m[s.Name] = periods[i]
	}
	return m
}

func snapshotPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%d.json", gen))
}

// writeSnapshot persists generation gen atomically: the bytes land in
// a temp file which is fsynced, renamed into place, and the directory
// fsynced — a crash leaves either no snap-<gen>.json or a complete
// one, never a torn one, which is what lets readLatestSnapshot treat
// any present snapshot as authoritative. All writes go through the
// store's filesystem seam so the chaos suite can fail any step.
func writeSnapshot(fs faultfs.FS, dir string, gen uint64, set *hydrac.TaskSet, cursor int, periods map[string]hydrac.Time) error {
	var setBuf bytes.Buffer
	if err := hydrac.EncodeTaskSet(&setBuf, set); err != nil {
		return fmt.Errorf("encoding snapshot set: %w", err)
	}
	payload, err := json.Marshal(snapshotFile{
		Version: snapshotVersion,
		NextFit: cursor,
		Set:     json.RawMessage(setBuf.Bytes()),
		Periods: periods,
	})
	if err != nil {
		return fmt.Errorf("encoding snapshot: %w", err)
	}
	// A fixed temp name per generation is safe: writers are serialised
	// per session (the engine lock), and the suffix keeps it invisible
	// to listSnapshotGens until the rename.
	tmpPath := snapshotPath(dir, gen) + ".tmp"
	tmp, err := fs.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmpPath) // no-op after a successful rename
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmpPath, snapshotPath(dir, gen)); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}

// readSnapshot loads one generation's snapshot and checks its
// version. The set stays raw until a caller decodes it.
func readSnapshot(dir string, gen uint64) (*snapshotFile, error) {
	raw, err := os.ReadFile(snapshotPath(dir, gen))
	if err != nil {
		return nil, err
	}
	var sf snapshotFile
	if err := json.Unmarshal(raw, &sf); err != nil {
		return nil, fmt.Errorf("parsing snapshot generation %d: %w", gen, err)
	}
	if sf.Version != snapshotVersion {
		return nil, fmt.Errorf("snapshot generation %d has version %d, this build reads %d", gen, sf.Version, snapshotVersion)
	}
	return &sf, nil
}

// listSnapshotGens returns every generation with a snap-<gen>.json in
// dir, ascending.
func listSnapshotGens(dir string) ([]uint64, error) {
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		g, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".json"), 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

func hasSnapshot(dir string) bool {
	gens, err := listSnapshotGens(dir)
	return err == nil && len(gens) > 0
}

// readLatestSnapshot loads the highest generation's snapshot — the
// authoritative one; snapshots are written atomically, so the highest
// present generation is always complete — and returns the superseded
// generations for cleanup. A snapshot that fails to parse is an error,
// not a fallback: falling back a generation would silently rewind
// acknowledged state. The set stays raw: handoff ships those bytes
// verbatim so the receiver persists exactly what the sender held.
func readLatestSnapshot(dir string) (gen uint64, sf *snapshotFile, stale []uint64, err error) {
	gens, err := listSnapshotGens(dir)
	if err != nil {
		return 0, nil, nil, err
	}
	if len(gens) == 0 {
		return 0, nil, nil, fmt.Errorf("no snapshot in %s", dir)
	}
	gen = gens[len(gens)-1]
	if sf, err = readSnapshot(dir, gen); err != nil {
		return 0, nil, nil, err
	}
	return gen, sf, gens[:len(gens)-1], nil
}
