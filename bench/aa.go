package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// worse is how much b is worse than a as a share of a, in the metric's
// own direction: positive means b regressed.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA is the benchmark's own acceptance test: every workload n times
// twice over (sets A and B, alternating, each run its own process and
// seed exactly as the driver runs them), then per workload x metric
// both medians, the quartile spread and the A-to-B difference against
// the bound. Any difference above its bound fails the run; anything
// above half its bound is flagged, because such a metric must be
// demoted to the client layer before it ships as end-to-end.
func runAA(n int, seed int64, seconds int) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmbench -aa:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmbench -aa:", err)
		return 2
	}
	one := func(workload string, seed int64) (*result, error) {
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, err
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, res.Failed, res.Attempted)
		}
		return &res, nil
	}

	code := 0
	fmt.Printf("A/A: %d runs per set, %d s each, seeds %d..%d\n", n, seconds, seed, seed+int64(n)-1)
	fmt.Printf("%-17s %-17s %12s %7s %12s %7s %8s %6s  %s\n", "workload", "metric", "median A", "iqr A", "median B", "iqr B", "B worse", "bound", "verdict")
	for _, w := range spec.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2 // alternate which set goes first
				res, err := one(w.Name, seed+int64(i))
				if err != nil {
					fmt.Fprintln(os.Stderr, "cosmbench -aa:", err)
					return 1
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		for _, ms := range spec.EndToEnd {
			a, b := sets[0][ms.Name], sets[1][ms.Name]
			ma, mb := median(a), median(b)
			spread := func(xs []float64, m float64) float64 {
				q1, q3 := quartiles(xs)
				return (q3 - q1) / m
			}
			// A/A has no "before": the difference counts in whichever
			// direction it fell.
			diff := max(worse(ma, mb, ms.Better), worse(mb, ma, ms.Better))
			verdict := "ok"
			switch {
			case diff > ms.Bound:
				verdict = "FAIL: beyond bound"
				code = 1
			case diff > ms.Bound/2:
				verdict = "unresolved: above half the bound"
			}
			fmt.Printf("%-17s %-17s %12.4f %6.1f%% %12.4f %6.1f%% %7.2f%% %5.0f%%  %s\n",
				w.Name, ms.Name, ma, 100*spread(a, ma), mb, 100*spread(b, mb), 100*diff, 100*ms.Bound, verdict)
		}
	}
	return code
}
