// Package campaign turns the paper's average-case grids into resumable
// sweep campaigns. A campaign Spec declares a parameter grid — algorithms
// × mesh sides × trial counts × workloads — that expands deterministically
// into at most MaxCells cells, each cell being one content-addressed
// mcbatch batch. The package holds the grid and its exports; it executes
// nothing. The daemon (internal/serve) runs each cell as a job, through
// the same lookup, execution and write-behind persistence as a submitted
// one, and skips cells the durable result store (internal/store) already
// holds, so a campaign interrupted by a crash resumes exactly where the
// log ends: only the missing cells run, and the exported grid is
// byte-identical to an uninterrupted run of the same Spec.
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

// MaxCells bounds one grid. Expand refuses a larger grid before it
// allocates anything, so what a request costs is bounded by this limit,
// not by the product of its axis lengths.
const MaxCells = 4096

// Expand validates the spec and returns its ID and its cells in
// canonical order: nested loops over algorithms, sides, trials, workloads
// as listed. The expansion is deterministic — it is the order exports
// render and the order the daemon runs cells — and a grid that would
// contain more than MaxCells cells, or two cells with the same content
// address (duplicate axis values), is rejected.
//
// The ID is content-addressed: a fold of the version tag, the name, and
// every cell key in expansion order, rendered as "c-" plus 32 hex digits.
// Two Specs that expand to the same named grid have the same ID, which is
// what makes resubmission after a daemon restart resume instead of
// restart.
func (s Spec) Expand() (string, []Cell, error) {
	if len(s.Algorithms) == 0 {
		return "", nil, fmt.Errorf("campaign: no algorithms")
	}
	if len(s.Sides) == 0 {
		return "", nil, fmt.Errorf("campaign: no sides")
	}
	if len(s.Trials) == 0 {
		return "", nil, fmt.Errorf("campaign: no trial counts")
	}
	if s.MaxSteps < 0 {
		return "", nil, fmt.Errorf("campaign: max_steps must be >= 0 (got %d)", s.MaxSteps)
	}
	workloads := s.Workloads
	if len(workloads) == 0 {
		workloads = []string{WorkloadPerm}
	}
	// The product of the axis lengths, stopped as soon as it would pass
	// MaxCells: n*l <= MaxCells exactly when l <= MaxCells/n, so the
	// multiplication never overflows.
	n := 1
	for _, l := range []int{len(s.Algorithms), len(s.Sides), len(s.Trials), len(workloads)} {
		if l > MaxCells/n {
			return "", nil, fmt.Errorf("campaign: %d algorithms × %d sides × %d trial counts × %d workloads exceed the %d-cell limit",
				len(s.Algorithms), len(s.Sides), len(s.Trials), len(workloads), MaxCells)
		}
		n *= l
	}
	cells := make([]Cell, 0, n)
	seen := make(map[mcbatch.Key]bool, n)
	for _, name := range s.Algorithms {
		alg, err := core.ByName(name)
		if err != nil {
			return "", nil, fmt.Errorf("campaign: algorithm: %w", err)
		}
		for _, side := range s.Sides {
			if side < 1 {
				return "", nil, fmt.Errorf("campaign: invalid side %d", side)
			}
			if err := alg.CheckMesh(side, side); err != nil {
				return "", nil, fmt.Errorf("campaign: %w", err)
			}
			for _, trials := range s.Trials {
				if trials < 1 {
					return "", nil, fmt.Errorf("campaign: invalid trial count %d", trials)
				}
				for _, wl := range workloads {
					var zeroOne bool
					switch wl {
					case WorkloadPerm:
					case WorkloadZeroOne:
						zeroOne = true
					default:
						return "", nil, fmt.Errorf("campaign: unknown workload %q (want %q or %q)",
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
						return "", nil, fmt.Errorf("campaign: %w", err)
					}
					if seen[key] {
						return "", nil, fmt.Errorf("campaign: duplicate cell %s (repeated axis value)",
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
	return cellsID(s.Name, cells), cells, nil
}

// idVersion tags the campaign identity encoding, like mcbatch's
// hashVersion tags the cell key encoding.
const idVersion = "campaign/id/v1\x00"

// cellsID folds the version tag, the name, and every cell key into the
// campaign ID (see Expand).
func cellsID(name string, cells []Cell) string {
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
	putStr(name)
	putU64(uint64(len(cells)))
	for _, c := range cells {
		h.Write(c.Key[:])
	}
	sum := h.Sum(nil)
	return "c-" + hex.EncodeToString(sum[:16])
}
