// Package provenance implements E2Clab's reproducibility machinery: the
// per-evaluation optimization directories created by prepare(), the
// deployment records captured by launch(), the evaluation archives written
// by finalize(), and the Phase III summary of computations that lets other
// researchers reproduce the results (optimization problem, sample-selection
// method, search algorithm and hyperparameters, best configuration found).
package provenance

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Archive is the root directory of one optimization run's artifacts.
type Archive struct {
	Root string
}

// NewArchive creates (or reuses) the root directory.
func NewArchive(root string) (*Archive, error) {
	if root == "" {
		return nil, fmt.Errorf("provenance: empty archive root")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("provenance: %w", err)
	}
	return &Archive{Root: root}, nil
}

// Prepare creates the dedicated optimization directory for one model
// evaluation (the prepare() method of the paper's Optimization class).
func (a *Archive) Prepare(evalIndex int) (string, error) {
	dir := filepath.Join(a.Root, fmt.Sprintf("optimization_%04d", evalIndex))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("provenance: prepare eval %d: %w", evalIndex, err)
	}
	return dir, nil
}

// DeploymentRecord captures deployment-related information for
// reproducibility: physical machines, network constraints, and application
// configuration (the launch() capture).
type DeploymentRecord struct {
	Machines      []string          `json:"machines,omitempty"`
	NetworkRules  []string          `json:"network_rules,omitempty"`
	Configuration map[string]string `json:"configuration"`
}

// EvaluationRecord is the finalize() archive for one evaluation.
type EvaluationRecord struct {
	Index      int                `json:"index"`
	Config     map[string]float64 `json:"config"`
	Objective  float64            `json:"objective"`
	Metric     string             `json:"metric"`
	Deployment *DeploymentRecord  `json:"deployment,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

// Finalize stores the evaluation record in its optimization directory.
func (a *Archive) Finalize(rec EvaluationRecord) error {
	dir, err := a.Prepare(rec.Index)
	if err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "evaluation.json"), rec)
}

// Summary is the Phase III "summary of computations".
type Summary struct {
	Name string `json:"name"`
	// Problem definition.
	Variables   []VariableDef `json:"variables"`
	Objective   string        `json:"objective"`
	Mode        string        `json:"mode"`
	Constraints []string      `json:"constraints,omitempty"`
	// Methods.
	SampleMethod  string            `json:"sample_method"`
	SearchAlg     string            `json:"search_algorithm"`
	Hyperparams   map[string]string `json:"hyperparameters,omitempty"`
	Scheduler     string            `json:"scheduler,omitempty"`
	NumSamples    int               `json:"num_samples"`
	MaxConcurrent int               `json:"max_concurrent"`
	Repeat        int               `json:"repeat,omitempty"`
	// RepeatParallelism records the per-evaluation repeat worker-pool bound
	// so archived runs replay with the same execution setup.
	RepeatParallelism int     `json:"repeat_parallelism,omitempty"`
	Duration          float64 `json:"duration,omitempty"`
	Seed              int64   `json:"seed"`
	// Results.
	BestConfig    map[string]float64 `json:"best_config"`
	BestObjective float64            `json:"best_objective"`
	Evaluations   int                `json:"evaluations"`
	FinishedAt    string             `json:"finished_at"`
}

// VariableDef documents one optimization variable and its bounds.
type VariableDef struct {
	Name string  `json:"name"`
	Kind string  `json:"kind"`
	Low  float64 `json:"low"`
	High float64 `json:"high"`
}

// WriteSummary stores the Phase III summary at the archive root.
func (a *Archive) WriteSummary(s Summary) error {
	if s.FinishedAt == "" {
		//simlint:allow wallclock archival metadata only: the timestamp records when the artifact was produced and feeds no simulated or optimized output
		s.FinishedAt = time.Now().UTC().Format(time.RFC3339)
	}
	return writeJSON(filepath.Join(a.Root, "summary.json"), s)
}

// WriteBlob stores an opaque artifact (e.g. a serialized surrogate model)
// at the archive root.
func (a *Archive) WriteBlob(name string, data []byte) error {
	if name == "" {
		return fmt.Errorf("provenance: empty blob name")
	}
	return os.WriteFile(filepath.Join(a.Root, name), data, 0o644)
}

// ReadSummary loads a previously written summary (for `e2clab report` and
// the repeatability command).
func (a *Archive) ReadSummary() (*Summary, error) {
	b, err := os.ReadFile(filepath.Join(a.Root, "summary.json"))
	if err != nil {
		return nil, fmt.Errorf("provenance: %w", err)
	}
	var s Summary
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("provenance: corrupt summary: %w", err)
	}
	return &s, nil
}

// Evaluations loads every archived evaluation, sorted by index.
func (a *Archive) Evaluations() ([]EvaluationRecord, error) {
	entries, err := os.ReadDir(a.Root)
	if err != nil {
		return nil, fmt.Errorf("provenance: %w", err)
	}
	var out []EvaluationRecord
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(a.Root, e.Name(), "evaluation.json"))
		if err != nil {
			continue // directory prepared but evaluation never finalized
		}
		var rec EvaluationRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("provenance: corrupt record %s: %w", e.Name(), err)
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("provenance: marshal %s: %w", path, err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	return os.Rename(tmp, path)
}
