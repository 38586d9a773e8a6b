package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// pinSeed and pinSizes fix the small plan every run draws first and
// compares against pins.json, whatever its own seed: a change to
// internal/gen shows as input drift, and a change to the analysis as
// report or admission drift, before anything is measured.
const pinSeed = 1

// pinSizes keeps the workload's own pool, so the pinned plan has its
// request mix (hot and cold durable sessions, denied deltas), but caps
// it where drawing the whole pool would cost seconds of analysis.
func (w *workload) pinSizes() sizes {
	return sizes{pool: min(w.pool, 96), closed: 120, open: 24}
}

// pin is the pinned summary of one workload's plan.
type pin struct {
	// Inputs digests every request body and set-up body.
	Inputs string `json:"inputs"`
	// Reports digests every expected canonical report and, for
	// sessions, the state each session ends in.
	Reports string `json:"reports"`
	// Admitted is the expected X-Hydra-Admitted sequence per client and
	// phase (t/f, phases separated by '|').
	Admitted string `json:"admitted"`
}

//go:embed pins.json
var pinsJSON []byte

// checkPin compares a plan drawn at the pin seed and sizes with the
// pinned digests of its workload.
func checkPin(w *workload, p *plan) error {
	var pins map[string]pin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return fmt.Errorf("pins.json: %w", err)
	}
	want, ok := pins[w.name]
	if !ok {
		return fmt.Errorf("pins.json has no entry for %s", w.name)
	}
	in, rep, adm := p.digests()
	switch {
	case in != want.Inputs:
		return fmt.Errorf("%s: generated inputs drifted from the pinned digest (got %s, pinned %s)", w.name, in, want.Inputs)
	case rep != want.Reports:
		return fmt.Errorf("%s: reference reports drifted from the pinned digest (got %s, pinned %s)", w.name, rep, want.Reports)
	case adm != want.Admitted:
		return fmt.Errorf("%s: admission sequence drifted from the pinned one (got %s, pinned %s)", w.name, adm, want.Admitted)
	}
	return nil
}

// regeneratePins rewrites the pin file; run it only after a deliberate
// change to the generator or the analysis.
func regeneratePins(path string) error {
	pins := map[string]pin{}
	for _, w := range workloads {
		p, err := w.plan(w, pinSeed, w.pinSizes())
		if err != nil {
			return err
		}
		var pn pin
		pn.Inputs, pn.Reports, pn.Admitted = p.digests()
		pins[w.name] = pn
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
