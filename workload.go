package pod

import (
	"fmt"
	"strings"

	"github.com/pod-dedup/pod/internal/api"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/workload"
)

// WorkloadNames lists the built-in synthetic traces (the FIU-like
// web-vm / homes / mail workloads of Table II).
func WorkloadNames() []string {
	var names []string
	for _, p := range workload.Profiles() {
		names = append(names, p.Name)
	}
	return names
}

// GenerateWorkload produces a built-in workload at the given scale
// (1.0 = the paper's request count). It returns the requests and the
// number of leading warm-up requests callers typically exclude from
// measurement.
func GenerateWorkload(name string, scale float64) ([]Request, int, error) {
	prof, ok := workload.ByName(name)
	if !ok {
		return nil, 0, fmt.Errorf("pod: unknown workload %q (have %s)", name, strings.Join(WorkloadNames(), ", "))
	}
	if scale <= 0 {
		return nil, 0, fmt.Errorf("pod: non-positive scale %f", scale)
	}
	tr, warm := workload.Generate(prof, scale)
	out := make([]Request, len(tr.Requests))
	for i := range tr.Requests {
		// Content slices are shared with the freshly generated trace,
		// not copied — the trace is not reused.
		out[i] = api.FromTrace(tr.Requests[i])
	}
	return out, warm, nil
}

// Replay submits a request sequence (must be time-ordered) and returns
// the final statistics.
func (s *System) Replay(reqs []Request) (Summary, error) {
	for i := range reqs {
		if _, err := s.Do(&reqs[i]); err != nil {
			return Summary{}, fmt.Errorf("request %d: %w", i, err)
		}
	}
	return s.Stats(), nil
}

// ResetStats clears the system's measurement counters (used after a
// warm-up prefix).
func (s *System) ResetStats() { s.eng.Stats().Reset() }

// ExperimentIDs lists the reproducible artifacts — the ids of the
// experiment catalogue cmd/podbench runs from: the paper's tables and
// figures first, then the beyond-paper experiments podbench keeps out of
// "all".
func ExperimentIDs() []string {
	ids := make([]string, len(experiments.Catalogue))
	for i, x := range experiments.Catalogue {
		ids[i] = x.ID
	}
	return ids
}

// RunExperiment regenerates one artifact and returns its formatted
// tables, exactly as podbench prints them. Scale 1.0 replays the full
// request counts; workers bounds replay parallelism (≤ 0 = one per
// replay).
func RunExperiment(id string, scale float64, workers int) (string, error) {
	if scale <= 0 {
		return "", fmt.Errorf("pod: non-positive scale %f", scale)
	}
	x, err := experiments.FindExperiment(id)
	if err != nil {
		return "", fmt.Errorf("pod: %w", err)
	}
	env := experiments.NewEnv(scale, workers)
	var out strings.Builder
	x.Print(env, &out)
	return strings.TrimSuffix(out.String(), "\n"), nil
}

// ChunkSize is the deduplication granularity in bytes.
const ChunkSize = chunk.Size

// MicrosPerSecond converts virtual time for callers.
const MicrosPerSecond = int64(sim.Second)
