package deep

import "encoding/json"

// RunStore is the persistence seam for resumable sweeps: the methods of
// internal/store's *Store a Runner calls. A Runner with a store keys
// each experiment by Spec.Key of the equivalent untraced experiment
// spec, answers a hit from the stored ResultPayload (touching the key,
// so epoch pruning sees the point as live), and writes each point it
// simulates as the Output Spec.Run returns for that spec. A deepbench
// point, a deeprun run and a deepd job are therefore one record under
// one key: each answers the others.
type RunStore interface {
	// Get returns the record stored under key. A missing, unreadable
	// or foreign record is a miss: the Runner simulates the point.
	Get(key string) (*Output, bool, error)
	Put(*Output) error
	Touch(key string) error
}

// storedTable returns experiment id's table from the record stored
// under key, or nil unless the record is that experiment's
// ResultPayload under that key.
func storedTable(st RunStore, key, id string) *Table {
	e, ok, err := st.Get(key)
	if err != nil || !ok {
		return nil
	}
	var p ResultPayload
	if json.Unmarshal(e.Result, &p) != nil || p.Kind != "experiment" || p.Key != key ||
		p.Experiment == nil || p.Experiment.ID != id || p.Experiment.Table == nil {
		return nil
	}
	st.Touch(key) //nolint:errcheck // advisory epoch refresh
	return p.Experiment.Table
}
