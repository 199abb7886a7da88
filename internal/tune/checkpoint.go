package tune

import (
	"encoding/json"
	"fmt"
	"os"

	"e2clab/internal/space"
)

// The paper's Optimization Manager leans on Ray Tune's checkpointing and
// logging; this file persists an Analysis so an interrupted or finished
// tuning run can be reloaded for reporting.

// analysisJSON is the serialized form of an Analysis.
type analysisJSON struct {
	Name   string      `json:"name"`
	Metric string      `json:"metric"`
	Mode   string      `json:"mode"`
	Trials []trialJSON `json:"trials"`
}

type trialJSON struct {
	ID      int       `json:"id"`
	Config  []float64 `json:"config"`
	Status  string    `json:"status"`
	Value   float64   `json:"value"`
	Reports []Report  `json:"reports,omitempty"`
	Err     string    `json:"error,omitempty"`
}

// Save writes the analysis as JSON.
func (a *Analysis) Save(path string) error {
	out := analysisJSON{Name: a.Name, Metric: a.Metric, Mode: a.Mode.String()}
	for _, t := range a.Trials {
		tj := trialJSON{ID: t.ID, Config: t.Config, Status: t.Status.String(),
			Value: t.Value, Reports: t.Reports}
		if t.Err != nil {
			tj.Err = t.Err.Error()
		}
		out.Trials = append(out.Trials, tj)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return fmt.Errorf("tune: marshal analysis: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("tune: %w", err)
	}
	return os.Rename(tmp, path)
}

// Load reads an analysis previously written by Save.
func Load(path string) (*Analysis, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tune: %w", err)
	}
	var in analysisJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return nil, fmt.Errorf("tune: corrupt analysis %s: %w", path, err)
	}
	a := &Analysis{Name: in.Name, Metric: in.Metric}
	// A mangled mode must not silently fall back to Min: a reloaded
	// max-mode analysis would then rank its trials in the wrong direction.
	// Accept exactly the Mode.String() values Save writes.
	switch in.Mode {
	case space.Min.String():
		a.Mode = space.Min
	case space.Max.String():
		a.Mode = space.Max
	default:
		return nil, fmt.Errorf("tune: corrupt analysis %s: unknown mode %q", path, in.Mode)
	}
	for _, tj := range in.Trials {
		t := &Trial{ID: tj.ID, Config: tj.Config, Value: tj.Value, Reports: tj.Reports}
		switch tj.Status {
		case "completed":
			t.Status = Completed
		case "stopped":
			t.Status = Stopped
		case "failed":
			t.Status = Failed
		case "running":
			t.Status = Running
		default:
			t.Status = Pending
		}
		if tj.Err != "" {
			t.Err = fmt.Errorf("%s", tj.Err)
		}
		a.Trials = append(a.Trials, t)
	}
	return a, nil
}
