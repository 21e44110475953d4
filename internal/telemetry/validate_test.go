package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// validStream renders a few events through the real encoder, so the
// happy path is tested against exactly what Recorder writes.
func validStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	for _, e := range []Event{
		{T: 1, Type: TypeStage, Flow: 0, Stage: "explore", Rate: 1e6},
		{T: 2, Type: TypeDecision, Flow: 1, Winner: "x_cl", UPrev: 1.5},
		{T: 3, Type: TypeSpan, Flow: -1, Reason: SpanBegin, Name: "scenario:test"},
		{T: 4, Type: TypeAnomaly, Flow: 0, Reason: AnomalyNoAckStreak},
	} {
		rec.Emit(&e)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestValidateStreamAcceptsRecorderOutput(t *testing.T) {
	n, err := ValidateStream(bytes.NewReader(validStream(t)), "good.jsonl")
	if err != nil {
		t.Fatalf("recorder output failed validation: %v", err)
	}
	if n != 4 {
		t.Fatalf("validated %d events, want 4", n)
	}
}

func TestValidateStreamSkipsBlankLines(t *testing.T) {
	in := "\n" + `{"t":1,"type":"stage","flow":0}` + "\n\n"
	n, err := ValidateStream(strings.NewReader(in), "s")
	if err != nil || n != 1 {
		t.Fatalf("got n=%d err=%v, want 1 event and no error", n, err)
	}
}

func TestValidateStreamRejections(t *testing.T) {
	cases := []struct {
		name, line, wantErr string
	}{
		{"unknown field", `{"t":1,"type":"stage","flow":0,"bogus":3}`, `unknown field "bogus"`},
		{"unknown type", `{"t":1,"type":"warp","flow":0}`, `unknown event type "warp"`},
		{"missing t", `{"type":"stage","flow":0}`, `missing required field "t"`},
		{"missing type", `{"t":1,"flow":0}`, `missing required field "type"`},
		{"missing flow", `{"t":1,"type":"stage"}`, `missing required field "flow"`},
		{"future version", fmt.Sprintf(`{"t":1,"type":"stage","flow":0,"v":%d}`, SchemaVersion+1), "newer than this build"},
		{"flow below -1", `{"t":1,"type":"enqueue","flow":-2,"bytes":1500}`, "flow -2 outside"},
		{"not json", `garbage`, "invalid character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A valid first line pins the error's line number to 2.
			in := `{"t":0,"type":"stage","flow":0}` + "\n" + tc.line + "\n"
			n, err := ValidateStream(strings.NewReader(in), "bad.jsonl")
			if err == nil {
				t.Fatalf("line %q validated, want error", tc.line)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			if !strings.HasPrefix(err.Error(), "bad.jsonl:2:") {
				t.Fatalf("error %q does not name bad.jsonl line 2", err)
			}
			if n != 1 {
				t.Fatalf("n = %d, want 1 (the valid line before the failure)", n)
			}
		})
	}
}

// TestValidateStreamCurrentVersionOK pins that a stream stamped with
// the current SchemaVersion — what Recorder writes — passes, and that
// legacy version-less streams stay readable.
func TestValidateStreamVersions(t *testing.T) {
	in := fmt.Sprintf(`{"t":1,"type":"stage","flow":0,"v":%d}`, SchemaVersion) + "\n" +
		`{"t":2,"type":"stage","flow":0}` + "\n" // pre-versioning line
	n, err := ValidateStream(strings.NewReader(in), "s")
	if err != nil || n != 2 {
		t.Fatalf("got n=%d err=%v, want both versions accepted", n, err)
	}
}

// A decoded flow ID sizes per-flow state in every offline reader (the
// time-series collector indexes a slice by it), so a stream carrying
// one past MaxFlowID is rejected by the decoder and the validator
// alike, while the largest allowed ID reads.
func TestFlowIDBounded(t *testing.T) {
	line := func(flow int) string {
		return fmt.Sprintf(`{"v":3,"t":1000,"type":"enqueue","flow":%d,"bytes":1500}`, flow)
	}
	for _, flow := range []int{2000000000, MaxFlowID + 1} {
		err := ReadEach(strings.NewReader(line(flow)), func(*Event) { t.Fatalf("flow %d decoded", flow) })
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("ReadEach of flow %d: error %v, want a flow range error", flow, err)
		}
		if _, err := ValidateStream(strings.NewReader(line(flow)), "s"); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("ValidateStream of flow %d: error %v, want a flow range error", flow, err)
		}
	}
	evs, err := ReadAll(strings.NewReader(line(MaxFlowID)))
	if err != nil || len(evs) != 1 || evs[0].Flow != MaxFlowID {
		t.Errorf("flow %d: read %v, %v; want the one event", MaxFlowID, evs, err)
	}
	if _, err := ValidateStream(strings.NewReader(line(MaxFlowID)), "s"); err != nil {
		t.Errorf("flow %d fails validation: %v", MaxFlowID, err)
	}
}
