package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// pinnedSeed is the seed whose deterministic outputs pins.json records.
const pinnedSeed = 1

// pins.json maps workload → operation → output → value for pinnedSeed at
// full scale. Regenerate a workload's entry with
//
//	bash perfbench/run.sh --workload <name> --seed 1 --seconds 1 --write-pins perfbench/pins.json
//
//go:embed pins.json
var pinsJSON []byte

type pinSet map[string]map[string]map[string]int64

func readPins(data []byte) (pinSet, error) {
	ps := pinSet{}
	if err := json.Unmarshal(data, &ps); err != nil {
		return nil, fmt.Errorf("pins: %w", err)
	}
	return ps, nil
}

// checkPins fails every operation whose outputs differ from its pin, or
// that has none.
func checkPins(b *bench, reps []*repStats) {
	if b.tiny {
		return
	}
	ps, err := readPins(pinsJSON)
	for _, r := range reps {
		for _, o := range r.ops {
			want, ok := ps[b.workload][o.Name]
			switch {
			case err != nil:
				o.fail("%v", err)
			case !ok:
				o.fail("no pin for seed %d", pinnedSeed)
			default:
				if d := diffDet(want, o.Det); d != "" {
					o.fail("pin mismatch: %s", d)
				}
			}
		}
	}
}

// savePins records the operations' outputs as the workload's pins.
func savePins(path string, b *bench, ops []*op) error {
	if b.seed != pinnedSeed || b.tiny {
		return fmt.Errorf("pins are recorded for seed %d at full scale only", pinnedSeed)
	}
	ps := pinSet{}
	if data, err := os.ReadFile(path); err == nil {
		if ps, err = readPins(data); err != nil {
			return err
		}
	}
	ps[b.workload] = map[string]map[string]int64{}
	for _, o := range ops {
		if len(o.Problems) > 0 {
			return fmt.Errorf("%s failed, not pinning it: %v", o.Name, o.Problems)
		}
		ps[b.workload][o.Name] = o.Det
	}
	data, err := json.MarshalIndent(ps, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
