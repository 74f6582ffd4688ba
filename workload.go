package d2m

import (
	"encoding/json"
	"fmt"

	"d2m/internal/workloads"
)

// WorkloadSpec is a user-defined synthetic workload, the public mirror of
// the internal generator parameters. It can be written by hand, loaded
// from JSON (ParseWorkload), and run on any configuration through
// RunSpec.Workload.
// See internal/workloads for the meaning of each knob; the catalog's 45
// paper benchmarks are instances of the same model.
type WorkloadSpec struct {
	// Name labels results.
	Name string `json:"name"`
	// Seed makes runs reproducible; 0 picks a fixed default.
	Seed uint64 `json:"seed"`

	// Instruction stream.
	CodeBytes    int     `json:"code_bytes"`
	HotCodeBytes int     `json:"hot_code_bytes"`
	HotJumpFrac  float64 `json:"hot_jump_frac"`
	RejumpFrac   float64 `json:"rejump_frac"`
	JumpProb     float64 `json:"jump_prob"`
	SharedCode   bool    `json:"shared_code"`

	// Data stream.
	DataFrac   float64 `json:"data_frac"`
	WriteFrac  float64 `json:"write_frac"`
	RepeatFrac float64 `json:"repeat_frac"`

	HotDataBytes    int     `json:"hot_data_bytes"`
	HotDataFrac     float64 `json:"hot_data_frac"`
	WarmBytes       int     `json:"warm_bytes"`
	WarmFrac        float64 `json:"warm_frac"`
	WarmStrideLines int     `json:"warm_stride_lines"`
	PrivateWS       int     `json:"private_ws"`

	SharedFrac      float64 `json:"shared_frac"`
	SharedHotBytes  int     `json:"shared_hot_bytes"`
	SharedHotFrac   float64 `json:"shared_hot_frac"`
	SharedWS        int     `json:"shared_ws"`
	SharedWriteFrac float64 `json:"shared_write_frac"`

	StreamFrac  float64 `json:"stream_frac"`
	StreamBytes int     `json:"stream_bytes"`
	StrideLines int     `json:"stride_lines"`
	StreamReuse int     `json:"stream_reuse"`
	// VectorLines models vector/SIMD streaming: each stream touch reads
	// this many consecutive lines before the walk advances by
	// StrideLines. 0 and 1 both mean single-line touches.
	VectorLines int `json:"vector_lines"`

	MigratoryLines int     `json:"migratory_lines"`
	MigratoryFrac  float64 `json:"migratory_frac"`
}

// Validate reports whether the spec is runnable.
func (w WorkloadSpec) Validate() error {
	frac := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("d2m: workload %q: %s = %v out of [0,1]", w.Name, name, v)
		}
		return nil
	}
	for name, v := range map[string]float64{
		"hot_jump_frac": w.HotJumpFrac, "rejump_frac": w.RejumpFrac,
		"jump_prob": w.JumpProb, "data_frac": w.DataFrac,
		"write_frac": w.WriteFrac, "repeat_frac": w.RepeatFrac,
		"hot_data_frac": w.HotDataFrac, "warm_frac": w.WarmFrac,
		"shared_frac": w.SharedFrac, "shared_hot_frac": w.SharedHotFrac,
		"shared_write_frac": w.SharedWriteFrac, "stream_frac": w.StreamFrac,
		"migratory_frac": w.MigratoryFrac,
	} {
		if err := frac(name, v); err != nil {
			return err
		}
	}
	for name, v := range map[string]int{
		"code_bytes": w.CodeBytes, "hot_code_bytes": w.HotCodeBytes,
		"hot_data_bytes": w.HotDataBytes, "warm_bytes": w.WarmBytes,
		"private_ws": w.PrivateWS, "shared_hot_bytes": w.SharedHotBytes,
		"shared_ws": w.SharedWS, "stream_bytes": w.StreamBytes,
		"warm_stride_lines": w.WarmStrideLines, "stride_lines": w.StrideLines,
		"stream_reuse": w.StreamReuse, "vector_lines": w.VectorLines,
		"migratory_lines": w.MigratoryLines,
	} {
		if v < 0 {
			return fmt.Errorf("d2m: workload %q: %s = %d negative", w.Name, name, v)
		}
	}
	if w.CodeBytes == 0 || w.HotCodeBytes == 0 {
		return fmt.Errorf("d2m: workload %q: code footprints must be positive", w.Name)
	}
	if w.HotDataBytes == 0 || w.PrivateWS == 0 {
		return fmt.Errorf("d2m: workload %q: private data pools must be positive", w.Name)
	}
	return nil
}

// ParseWorkload loads a WorkloadSpec from JSON and validates it.
func ParseWorkload(data []byte) (WorkloadSpec, error) {
	var w WorkloadSpec
	if err := json.Unmarshal(data, &w); err != nil {
		return WorkloadSpec{}, fmt.Errorf("d2m: parsing workload: %w", err)
	}
	if err := w.Validate(); err != nil {
		return WorkloadSpec{}, err
	}
	return w, nil
}

// toInternal converts to the generator's spec.
func (w WorkloadSpec) toInternal() *workloads.Spec {
	name := w.Name
	if name == "" {
		name = "custom"
	}
	seed := w.Seed
	if seed == 0 {
		seed = 0x5ee0
	}
	return &workloads.Spec{
		Name: name, Suite: SuiteCustom, Seed: seed,
		CodeBytes: w.CodeBytes, HotCodeBytes: w.HotCodeBytes,
		HotJumpFrac: w.HotJumpFrac, RejumpFrac: w.RejumpFrac,
		JumpProb: w.JumpProb, SharedCode: w.SharedCode,
		DataFrac: w.DataFrac, WriteFrac: w.WriteFrac, RepeatFrac: w.RepeatFrac,
		HotDataBytes: w.HotDataBytes, HotDataFrac: w.HotDataFrac,
		WarmBytes: w.WarmBytes, WarmFrac: w.WarmFrac,
		WarmStrideLines: w.WarmStrideLines, PrivateWS: w.PrivateWS,
		SharedFrac: w.SharedFrac, SharedHotBytes: w.SharedHotBytes,
		SharedHotFrac: w.SharedHotFrac, SharedWS: w.SharedWS,
		SharedWriteFrac: w.SharedWriteFrac,
		StreamFrac:      w.StreamFrac, StreamBytes: w.StreamBytes,
		StrideLines: w.StrideLines, StreamReuse: w.StreamReuse,
		VectorLines:    w.VectorLines,
		MigratoryLines: w.MigratoryLines, MigratoryFrac: w.MigratoryFrac,
	}
}
