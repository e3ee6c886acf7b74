package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzJobRequest feeds arbitrary bodies through the daemon's own request
// decoder and ToSpec under the default limits. Neither may panic, a
// refused body is a 400, and every accepted spec must be one the batch
// runner and the cache can take: a mesh its algorithm accepts, within
// the default cell and trial limits, a trial range DefaultStream keeps
// injective, a non-negative step cap, and a content address.
func FuzzJobRequest(f *testing.F) {
	for _, body := range []string{
		`{"algorithm":"snake-a","side":8,"trials":40,"seed":11}`,
		`{"algorithm":"snake-a","side":8,"trials":4,"kernel":"span"}`,
		`{"algorithm":"snake-a","side":8,"trials":4,"shards":2}`,
		`{"algorithm":"snake-a","side":2147483648,"trials":4}`,
		`{"algorithm":"rm-rf","rows":4,"cols":6,"trials":4,"trial_offset":-1}`,
		`{"algorithm":"shearsort","side":8,"trials":2147483648,"zeroone":true}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		req, ok := decodeRequest(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if !ok {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("refused body answered %d, want 400", w.Code)
			}
			return
		}
		spec, err := req.ToSpec(Limits{})
		if err != nil {
			return
		}
		if err := spec.Algorithm.CheckMesh(spec.Rows, spec.Cols); err != nil {
			t.Fatalf("accepted %+v: %v", req, err)
		}
		if err := spec.CheckTrialRange(); err != nil {
			t.Fatalf("accepted %+v: %v", req, err)
		}
		if exceedsCells(spec.Rows, spec.Cols, defaultMaxCells) {
			t.Fatalf("accepted a %dx%d mesh past the %d-cell limit", spec.Rows, spec.Cols, defaultMaxCells)
		}
		if spec.Trials < 1 || spec.Trials > defaultMaxTrials {
			t.Fatalf("accepted %d trials, limit %d", spec.Trials, defaultMaxTrials)
		}
		if spec.MaxSteps < 0 {
			t.Fatalf("accepted max_steps %d", spec.MaxSteps)
		}
		if _, err := spec.Hash(); err != nil {
			t.Fatalf("accepted %+v has no content address: %v", req, err)
		}
	})
}
