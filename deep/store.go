package deep

import (
	"bytes"
	"encoding/json"
)

// RunStore is the persistence seam for resumable sweeps: a Runner
// with a store consults it by content hash before simulating each
// experiment and skips points that are already computed, then
// persists the points it did simulate. internal/store.RunView
// implements it over the embedded on-disk store; any keyed blob
// storage works.
//
// Payloads are opaque to the store: the Runner writes a versioned
// JSON record whose table re-renders byte-identically to a fresh
// computation (the golden-file guarantee carries through the store).
type RunStore interface {
	// LookupRun returns the payload stored under key, or false on a
	// miss. An unreadable or stale payload should report a miss, not
	// an error: the Runner then simulates the point fresh.
	LookupRun(key string) ([]byte, bool)
	// StoreRun persists a finished run. experiment tags the record for
	// query surfaces; text is the rendered table for human inspection.
	StoreRun(key, experiment string, payload, text []byte) error
}

// storedRun is the versioned payload one finished experiment run
// persists under its content hash.
type storedRun struct {
	V        int    `json:"v"`
	ID       string `json:"id"`
	Title    string `json:"title"`
	PaperRef string `json:"paper_ref"`
	Table    *Table `json:"table"`
}

// runKey returns the content address of one registry run: experiment
// id plus the canonical run knobs, hashed the same way regardless of
// which defaults were spelled out.
func runKey(id string, run runSettings) (string, error) {
	return ContentHash(struct {
		V          int         `json:"v"`
		Kind       string      `json:"kind"`
		Experiment string      `json:"experiment"`
		Run        runSettings `json:"run"`
	}{1, "run", id, run})
}

// encodeStoredRun renders the persisted payload and text for one
// finished run.
func encodeStoredRun(res RunResult) (payload, text []byte, err error) {
	if payload, err = json.Marshal(storedRun{
		V: 1, ID: res.ID, Title: res.Title, PaperRef: res.PaperRef, Table: res.Table,
	}); err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := res.Table.Render(&buf); err != nil {
		return nil, nil, err
	}
	return payload, buf.Bytes(), nil
}

// decodeStoredRun parses a stored payload back into a table,
// rejecting version or identity mismatches (treated as misses).
func decodeStoredRun(payload []byte, id string) (*Table, bool) {
	var sr storedRun
	if err := json.Unmarshal(payload, &sr); err != nil {
		return nil, false
	}
	if sr.V != 1 || sr.ID != id || sr.Table == nil {
		return nil, false
	}
	return sr.Table, true
}
