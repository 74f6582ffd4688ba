package api

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Server-sent events (API v1.6): GET /v1/jobs/{id} and
// GET /v1/sweeps/{id} stream state transitions when the client asks
// for text/event-stream, instead of being polled. Event ids are dense
// and deterministic per resource, so a reconnect with Last-Event-ID
// resumes exactly where the previous stream broke.

// AcceptsSSE reports whether the request negotiated an event stream:
// an Accept header listing text/event-stream.
func AcceptsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// LastEventID parses the reconnect cursor: the numeric Last-Event-ID
// header a browser EventSource (or any resuming client) replays. Zero
// — start from the beginning — when absent or malformed.
func LastEventID(r *http.Request) int {
	n, err := strconv.Atoi(r.Header.Get("Last-Event-ID"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// SSEWriter frames events onto one text/event-stream response,
// flushing after each so the client sees every transition as it
// happens.
type SSEWriter struct {
	w  http.ResponseWriter
	fl http.Flusher
}

// NewSSEWriter starts the event stream: headers are set and the
// status line is written. It returns false when the ResponseWriter
// cannot flush (no streaming transport), in which case nothing was
// written and the caller should fall back to a plain response.
func NewSSEWriter(w http.ResponseWriter) (*SSEWriter, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return &SSEWriter{w: w, fl: fl}, true
}

// Event writes one event — id, event name, and data as one line of
// JSON — and flushes it. The data line is exactly json.Marshal of v,
// so two servers emitting the same value emit the same bytes.
func (s *SSEWriter) Event(id int, event string, v interface{}) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(s.w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, data); err != nil {
		return err
	}
	s.fl.Flush()
	return nil
}

// ScanEvents reads an event stream framed by SSEWriter: it calls fn for
// every event on r, with the event's id, name and data line, until fn
// fails or the stream ends.
func ScanEvents(r io.Reader, fn func(id int, event string, data []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	var (
		id    int
		event string
		data  []byte
	)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "" && data != nil:
			if err := fn(id, event, data); err != nil {
				return err
			}
			id, event, data = 0, "", nil
		case strings.HasPrefix(line, "id: "):
			id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	return sc.Err()
}
