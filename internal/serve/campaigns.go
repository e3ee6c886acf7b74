package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/campaign"
)

// campaignState is the lifecycle of a daemon-run campaign:
// Running → Done / Failed / Interrupted.
type campaignState int

const (
	campaignRunning campaignState = iota
	campaignDone
	campaignFailed
	campaignInterrupted
)

// String returns the wire name of the state.
func (s campaignState) String() string {
	switch s {
	case campaignRunning:
		return "running"
	case campaignDone:
		return "done"
	case campaignFailed:
		return "failed"
	case campaignInterrupted:
		return "interrupted"
	default:
		return "invalid"
	}
}

// Campaign is one grid tracked by the daemon's campaign registry. Its ID
// is content-addressed (campaign.Spec.Expand folds the cell keys), so
// resubmitting the same grid — in this process or after a restart —
// addresses the same campaign: a live one dedups, a finished-but-
// incomplete one relaunches and resumes from the store.
type Campaign struct {
	ID   string
	spec campaign.Spec

	mu       sync.Mutex
	state    campaignState // guarded by mu
	errMsg   string        // guarded by mu
	cells    int           // guarded by mu
	executed int           // guarded by mu
	skipped  int           // guarded by mu

	// done closes when the campaign reaches a terminal state.
	done chan struct{}
}

func newCampaign(id string, spec campaign.Spec, cells int) *Campaign {
	return &Campaign{ID: id, spec: spec, cells: cells, done: make(chan struct{})}
}

// observe counts one finished cell: executed, or skipped because the
// store already held it.
func (c *Campaign) observe(executed bool) {
	c.mu.Lock()
	if executed {
		c.executed++
	} else {
		c.skipped++
	}
	c.mu.Unlock()
}

// finish moves the campaign to a terminal state and releases waiters.
func (c *Campaign) finish(state campaignState, errMsg string) {
	c.mu.Lock()
	c.state = state
	c.errMsg = errMsg
	c.mu.Unlock()
	close(c.done)
}

// snapshot returns the mutable fields at one instant.
func (c *Campaign) snapshot() (state campaignState, errMsg string, cells, executed, skipped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state, c.errMsg, c.cells, c.executed, c.skipped
}

// live reports whether the campaign is running or finished whole; a
// failed or interrupted campaign is not live and may be relaunched.
func (c *Campaign) live() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state == campaignRunning || c.state == campaignDone
}

// submitCampaign validates the grid (at most campaign.MaxCells cells,
// each within the same Limits as a single job), registers (or dedups
// onto) the campaign, and launches its goroutine.
func (s *Server) submitCampaign(spec campaign.Spec) (*Campaign, bool, *apiError) {
	if s.cfg.Store == nil {
		return nil, false, &apiError{http.StatusServiceUnavailable,
			"campaigns need a durable store; start meshsortd with -store"}
	}
	id, cells, err := spec.Expand()
	if err != nil {
		return nil, false, &apiError{http.StatusBadRequest, err.Error()}
	}
	for i, c := range cells {
		if c.Trials > s.cfg.Limits.MaxTrials {
			return nil, false, &apiError{http.StatusBadRequest,
				fmt.Sprintf("cell %d (%s): trials %d over limit %d", i, c, c.Trials, s.cfg.Limits.MaxTrials)}
		}
		if exceedsCells(c.Side, c.Side, s.cfg.Limits.MaxCells) {
			return nil, false, &apiError{http.StatusBadRequest,
				fmt.Sprintf("cell %d (%s): %dx%d mesh over limit %d cells", i, c, c.Side, c.Side, s.cfg.Limits.MaxCells)}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, &apiError{http.StatusServiceUnavailable, "server is draining"}
	}
	s.metrics.campaignsSubmitted.Add(1)
	if existing, ok := s.campaigns[id]; ok && existing.live() {
		s.metrics.campaignsDeduped.Add(1)
		return existing, true, nil
	}
	c := newCampaign(id, spec, len(cells))
	s.campaigns[id] = c
	s.campaignWG.Add(1)
	go s.runCampaign(c, cells)
	return c, false, nil
}

// errInterrupted ends a campaign that shutdown stopped; its cells so far
// are durable, and a resubmission resumes after them.
var errInterrupted = errors.New("campaign interrupted by shutdown; resubmit to resume")

// runCampaign drives one campaign to a terminal state on its own
// goroutine.
func (s *Server) runCampaign(c *Campaign, cells []campaign.Cell) {
	defer s.campaignWG.Done()
	s.metrics.campaignsRunning.Add(1)
	defer s.metrics.campaignsRunning.Add(-1)
	s.log.Info("campaign started", "id", c.ID, "name", c.spec.Name, "cells", len(cells))

	err := s.runCells(c, cells)
	switch {
	case err == nil:
		_, _, total, executed, skipped := c.snapshot()
		if skipped > 0 {
			s.metrics.campaignsResumed.Add(1)
		}
		s.metrics.campaignsDone.Add(1)
		c.finish(campaignDone, "")
		s.log.Info("campaign done", "id", c.ID,
			"cells", total, "executed", executed, "skipped", skipped)
	case errors.Is(err, errInterrupted):
		s.metrics.campaignsInterrupt.Add(1)
		c.finish(campaignInterrupted, err.Error())
		s.log.Warn("campaign interrupted", "id", c.ID, "err", err)
	default:
		s.metrics.campaignsFailed.Add(1)
		c.finish(campaignFailed, err.Error())
		s.log.Warn("campaign failed", "id", c.ID, "err", err)
	}
}

// runCells runs the cells one at a time, in expansion order, on the job
// path. A cell the store holds is skipped. Any other is looked up like a
// submission; a new job runs inline through runJob, with a job's
// timeout, executor, metrics and write-behind put. A cell counts as
// executed once its payload is durable: after a cache hit, or a dedup
// onto a job whose put failed, the cell puts the payload itself, and a
// failed put fails the campaign. Once Drain or Close has set draining,
// no further cell starts; the flag is read under the lock that starts a
// job, so no cell enters the in-flight count Drain is waiting on.
func (s *Server) runCells(c *Campaign, cells []campaign.Cell) error {
	for i, cell := range cells {
		if s.cfg.Store.Has(cell.Key) {
			c.observe(false)
			s.metrics.campaignCellsSkip.Add(1)
			continue
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return errInterrupted
		}
		out := s.lookupLocked(cell.Key, cell.Spec)
		fresh := !out.cached && !out.deduped
		if fresh {
			s.startLocked(out.job)
		}
		s.mu.Unlock()
		if fresh {
			s.runJob(out.job)
		}
		<-out.job.settled
		state, errMsg, payload := out.job.Snapshot()
		if state == JobFailed {
			if s.baseCtx.Err() != nil {
				return errInterrupted
			}
			return fmt.Errorf("campaign: cell %d (%s): %s", i, cell, errMsg)
		}
		if !s.cfg.Store.Has(cell.Key) {
			if err := s.cfg.Store.Put(cell.Key, payload); err != nil {
				s.metrics.storeErrors.Add(1)
				return fmt.Errorf("campaign: cell %d (%s): %w", i, cell, err)
			}
			s.metrics.storePuts.Add(1)
		}
		c.observe(true)
		s.metrics.campaignCellsRun.Add(1)
	}
	return nil
}

// campaignByID looks a campaign up.
func (s *Server) campaignByID(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// campaignStatusResponse is the body of POST /v1/campaigns and
// GET /v1/campaigns/{id}.
type campaignStatusResponse struct {
	ID        string `json:"id"`
	Name      string `json:"name,omitempty"`
	Status    string `json:"status"`
	Cells     int    `json:"cells"`
	Executed  int    `json:"executed"`
	Skipped   int    `json:"skipped"`
	Remaining int    `json:"remaining"`
	Error     string `json:"error,omitempty"`
	Deduped   bool   `json:"deduped,omitempty"`
}

func campaignStatus(c *Campaign, deduped bool) campaignStatusResponse {
	state, errMsg, cells, executed, skipped := c.snapshot()
	return campaignStatusResponse{
		ID:        c.ID,
		Name:      c.spec.Name,
		Status:    state.String(),
		Cells:     cells,
		Executed:  executed,
		Skipped:   skipped,
		Remaining: cells - executed - skipped,
		Error:     errMsg,
		Deduped:   deduped,
	}
}

func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	spec, ok := decodeBody[campaign.Spec](w, r, "bad campaign spec")
	if !ok {
		return
	}
	c, deduped, apiErr := s.submitCampaign(spec)
	if apiErr != nil {
		writeErr(w, apiErr.status, apiErr.msg)
		return
	}
	writeJSON(w, http.StatusAccepted, campaignStatus(c, deduped))
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown campaign id")
		return
	}
	if r.URL.Query().Get("wait") != "" {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.LongPollMax)
		select {
		case <-c.done:
		case <-ctx.Done():
		}
		cancel()
	}
	writeJSON(w, http.StatusOK, campaignStatus(c, false))
}

// handleCampaignExport serves the completed grid. The bytes are a pure
// function of (spec, store contents): 409 until every cell is stored,
// then byte-identical no matter how many interrupted runs produced them.
func (s *Server) handleCampaignExport(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown campaign id")
		return
	}
	if s.cfg.Store == nil {
		writeErr(w, http.StatusServiceUnavailable, "no durable store configured")
		return
	}
	format := r.URL.Query().Get("format")
	var out []byte
	var err error
	var contentType string
	switch format {
	case "", "json":
		contentType = "application/json"
		out, err = campaign.ExportJSON(c.spec, s.cfg.Store.Get)
	case "csv":
		contentType = "text/csv; charset=utf-8"
		out, err = campaign.ExportCSV(c.spec, s.cfg.Store.Get)
	default:
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("unknown export format %q (json, csv)", format))
		return
	}
	if err != nil {
		if errors.Is(err, campaign.ErrIncomplete) {
			writeErr(w, http.StatusConflict, err.Error())
			return
		}
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.metrics.campaignExportBytes.Add(int64(len(out)))
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(out)
}
