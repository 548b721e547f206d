package fleet

import (
	"encoding/json"
	"testing"
)

// FuzzLoadCheckpoint: decoding checkpoint bytes never panics, and any
// input it accepts is valid and re-encodes to bytes that decode to the
// same checkpoint — the same bytes again once encoded. The committed
// corpus holds a real v2 checkpoint with a quarantined tenant, a real
// v1 checkpoint, and truncated and garbage inputs.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := parseCheckpoint(data)
		if err != nil {
			return
		}
		if err := cp.validate(); err != nil {
			t.Fatalf("accepted checkpoint fails validate: %v", err)
		}
		enc, err := json.Marshal(cp)
		if err != nil {
			t.Fatalf("encode accepted checkpoint: %v", err)
		}
		again, err := parseCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v\n%s", err, enc)
		}
		enc2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("encode reloaded checkpoint: %v", err)
		}
		if string(enc2) != string(enc) {
			t.Fatalf("checkpoint changed across a reload:\n%s\n%s", enc, enc2)
		}
	})
}
