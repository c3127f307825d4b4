package store

import (
	"bytes"
	"testing"
)

// FuzzManifestDecode is the store's input-hardening property:
// DecodeManifest must never panic on arbitrary bytes, and any input it
// accepts must re-encode and re-decode to a fixed point — a manifest
// that survives validation is fully representable by the writer.
func FuzzManifestDecode(f *testing.F) {
	man := &Manifest{
		FormatVersion: ManifestFormatVersion,
		Version:       3,
		Schema:        "tpch",
		Source:        "upload",
		Models: []ModelEntry{{
			Resource:  "cpu",
			File:      "cpu.model.slab",
			SHA256:    "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
			Mode:      "exact",
			NumModels: 5,
		}},
	}
	seed, err := man.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("{}"))
	f.Add([]byte(`{"format_version":1,"version":0,"models":[]}`))
	f.Add([]byte(`{"format_version":1,"version":1,"models":[{"resource":"cpu","file":"../evil","sha256":""}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted manifest failed to encode: %v", err)
		}
		m2, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted manifest failed: %v\n%s", err, enc)
		}
		enc2, err := m2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode is not a fixed point:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
