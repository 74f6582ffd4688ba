package api

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
)

// TestSSERoundTrip frames events with SSEWriter and reads them back
// with ScanEvents: ids, names and data survive, including a string
// with a newline (JSON escapes it, so the data stays one line).
func TestSSERoundTrip(t *testing.T) {
	type frame struct {
		ID    int
		Event string
		Data  map[string]string
	}
	sent := []frame{
		{1, "state", map[string]string{"state": "queued"}},
		{2, "cell", map[string]string{"error": "line one\nline two"}},
		{7, "sweep", map[string]string{}},
	}
	rec := httptest.NewRecorder()
	w, ok := NewSSEWriter(rec)
	if !ok {
		t.Fatal("recorder cannot stream")
	}
	for _, f := range sent {
		if err := w.Event(f.ID, f.Event, f.Data); err != nil {
			t.Fatal(err)
		}
	}
	var got []frame
	err := ScanEvents(rec.Body, func(id int, event string, data []byte) error {
		f := frame{ID: id, Event: event}
		if err := json.Unmarshal(data, &f.Data); err != nil {
			return err
		}
		got = append(got, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sent) {
		t.Errorf("read back %+v, sent %+v", got, sent)
	}
}
