// Package campaign turns the paper's average-case grids into resumable
// sweep campaigns. A campaign Spec declares a parameter grid — algorithms
// × mesh sides × trial counts × workloads — that expands deterministically
// into cells, each cell being one content-addressed mcbatch batch. The
// Runner executes cells with bounded concurrency against the durable
// result store (internal/store), persisting each cell's canonical payload
// on completion and skipping cells already on disk, so a campaign
// interrupted by a crash resumes exactly where the log ends: only the
// missing cells run, and the exported grid is byte-identical to an
// uninterrupted run of the same Spec.
//
// Identity is content-addressed at both levels. A cell's key is
// mcbatch.Spec.Hash() — the daemon's cache key, so campaign cells, ad-hoc
// jobs, and restarts all share one store entry per unique batch. A
// campaign's ID folds the version tag, the name, and every cell key, so
// resubmitting the same grid (to the same daemon or after a restart)
// names the same campaign.
package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/mcbatch"
)

// Workload names the input family of one grid axis value.
const (
	// WorkloadPerm draws uniformly random permutations of 1..N (the
	// paper's average-case model).
	WorkloadPerm = "perm"
	// WorkloadZeroOne draws the paper's half-0/half-1 grids and runs the
	// 0-1 kernels.
	WorkloadZeroOne = "zeroone"
)

// Spec declares a campaign: the cross product of the four axes, sharing
// one master seed and step cap. The zero values of Workloads, Seed and
// MaxSteps mean [perm], the harness default seed, and the engine default
// cap. Axis order is meaningful — cells expand in nested listed order
// (algorithms outermost, workloads innermost) — but two Specs listing the
// same values in the same order are the same campaign.
type Spec struct {
	// Name is a human label carried into status and exports; it is part
	// of the campaign identity (same grid, different name = different
	// campaign).
	Name string `json:"name,omitempty"`
	// Algorithms are schedule short names (core.ByName).
	Algorithms []string `json:"algorithms"`
	// Sides are square mesh sides.
	Sides []int `json:"sides"`
	// Trials are Monte-Carlo trial counts.
	Trials []int `json:"trials"`
	// Workloads are input families: "perm" and/or "zeroone". Empty means
	// ["perm"].
	Workloads []string `json:"workloads,omitempty"`
	// Seed is the master seed shared by every cell (0 = harness default).
	Seed uint64 `json:"seed,omitempty"`
	// MaxSteps caps each trial (0 = engine default).
	MaxSteps int `json:"max_steps,omitempty"`
}

// Cell is one grid point: its coordinates, the batch Spec it runs, and
// the batch's content address (the store key).
type Cell struct {
	Algorithm string
	Side      int
	Trials    int
	Workload  string
	Spec      mcbatch.Spec
	Key       mcbatch.Key
}

// String names the cell for errors and logs.
func (c Cell) String() string {
	return fmt.Sprintf("%s side=%d trials=%d %s", c.Algorithm, c.Side, c.Trials, c.Workload)
}

// Expand validates the spec and returns its cells in canonical order:
// nested loops over algorithms, sides, trials, workloads as listed. The
// expansion is deterministic — it is the order exports render and the
// order the Runner claims work — and a grid that would contain two cells
// with the same content address is rejected (duplicate axis values).
func (s Spec) Expand() ([]Cell, error) {
	if len(s.Algorithms) == 0 {
		return nil, fmt.Errorf("campaign: no algorithms")
	}
	if len(s.Sides) == 0 {
		return nil, fmt.Errorf("campaign: no sides")
	}
	if len(s.Trials) == 0 {
		return nil, fmt.Errorf("campaign: no trial counts")
	}
	if s.MaxSteps < 0 {
		return nil, fmt.Errorf("campaign: max_steps must be >= 0 (got %d)", s.MaxSteps)
	}
	workloads := s.Workloads
	if len(workloads) == 0 {
		workloads = []string{WorkloadPerm}
	}
	cells := make([]Cell, 0, len(s.Algorithms)*len(s.Sides)*len(s.Trials)*len(workloads))
	seen := make(map[mcbatch.Key]bool, cap(cells))
	for _, name := range s.Algorithms {
		alg, err := core.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("campaign: algorithm: %w", err)
		}
		for _, side := range s.Sides {
			if side < 1 {
				return nil, fmt.Errorf("campaign: invalid side %d", side)
			}
			if err := alg.CheckMesh(side, side); err != nil {
				return nil, fmt.Errorf("campaign: %w", err)
			}
			for _, trials := range s.Trials {
				if trials < 1 {
					return nil, fmt.Errorf("campaign: invalid trial count %d", trials)
				}
				for _, wl := range workloads {
					var zeroOne bool
					switch wl {
					case WorkloadPerm:
					case WorkloadZeroOne:
						zeroOne = true
					default:
						return nil, fmt.Errorf("campaign: unknown workload %q (want %q or %q)",
							wl, WorkloadPerm, WorkloadZeroOne)
					}
					spec := mcbatch.Spec{
						Algorithm: alg,
						Rows:      side,
						Cols:      side,
						Trials:    trials,
						Seed:      s.Seed,
						MaxSteps:  s.MaxSteps,
						ZeroOne:   zeroOne,
					}
					key, err := spec.Hash()
					if err != nil {
						return nil, fmt.Errorf("campaign: %w", err)
					}
					if seen[key] {
						return nil, fmt.Errorf("campaign: duplicate cell %s (repeated axis value)",
							Cell{Algorithm: name, Side: side, Trials: trials, Workload: wl})
					}
					seen[key] = true
					cells = append(cells, Cell{
						Algorithm: name, Side: side, Trials: trials, Workload: wl,
						Spec: spec, Key: key,
					})
				}
			}
		}
	}
	return cells, nil
}

// idVersion tags the campaign identity encoding, like mcbatch's
// hashVersion tags the cell key encoding.
const idVersion = "campaign/id/v1\x00"

// ID returns the campaign's content-addressed identity: a fold of the
// version tag, the name, and every cell key in expansion order, rendered
// as "c-" plus 32 hex digits. Two Specs that expand to the same named
// grid have the same ID, which is what makes resubmission after a daemon
// restart resume instead of restart.
func (s Spec) ID() (string, error) {
	cells, err := s.Expand()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var buf [8]byte
	putU64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putStr := func(v string) {
		putU64(uint64(len(v)))
		h.Write([]byte(v))
	}
	putStr(idVersion)
	putStr(s.Name)
	putU64(uint64(len(cells)))
	for _, c := range cells {
		h.Write(c.Key[:])
	}
	sum := h.Sum(nil)
	return "c-" + hex.EncodeToString(sum[:16]), nil
}
