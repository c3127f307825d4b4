//go:build !(linux || darwin)

package store

import "os"

// Portable fallback for platforms without the mmap path: the slab file
// is read onto the heap. The zero-copy alias inside the slab decoders
// still applies (the Compiled views point into this buffer), so restore
// skips any recompile either way; only the page-sharing and lazy-fault
// properties of the real mapping are lost.
type mappedFile struct {
	b []byte
}

func (m *mappedFile) Bytes() []byte { return m.b }

func (m *mappedFile) Close() error { return nil }

func mmapFile(path string) (*mappedFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &mappedFile{b: b}, nil
}
