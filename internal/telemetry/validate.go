package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// ValidateStream checks a JSONL event stream against the current
// schema: every line must be a JSON object with no unknown fields, a
// known "type", a flow ID in [-1, MaxFlowID], and a version no newer
// than SchemaVersion. name labels the stream in error messages
// (typically the file path); the first violation is returned as
// "<name>:<line>: <problem>". A nil return means the whole stream
// validated; n reports how many events were checked either way.
func ValidateStream(r io.Reader, name string) (n int64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e Event
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			return n, fmt.Errorf("%s:%d: %w", name, line, err)
		}
		// The encoder writes t/type/flow unconditionally; a line missing
		// one was truncated or hand-edited. JSON zero values are
		// indistinguishable from absent fields through the struct, so
		// check key presence directly.
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(raw, &keys); err != nil {
			return n, fmt.Errorf("%s:%d: %w", name, line, err)
		}
		for _, req := range []string{"t", "type", "flow"} {
			if _, ok := keys[req]; !ok {
				return n, fmt.Errorf("%s:%d: missing required field %q", name, line, req)
			}
		}
		if err := checkFlow(e.Flow); err != nil {
			return n, fmt.Errorf("%s:%d: %w", name, line, err)
		}
		if !slices.Contains(Types[:], e.Type) {
			return n, fmt.Errorf("%s:%d: unknown event type %q", name, line, e.Type)
		}
		if e.V > SchemaVersion {
			return n, fmt.Errorf("%s:%d: schema version %d is newer than this build understands (max %d)",
				name, line, e.V, SchemaVersion)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("%s: %w", name, err)
	}
	return n, nil
}
