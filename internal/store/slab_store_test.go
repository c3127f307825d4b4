package store

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
)

// publishOne publishes a single-resource snapshot and returns its
// manifest.
func publishOne(t *testing.T, st *Store, schema string, r plan.ResourceKind, est *core.Estimator) *Manifest {
	t.Helper()
	man, err := st.Publish(Snapshot{Schema: schema, Models: map[plan.ResourceKind]*core.Estimator{r: est}})
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// TestSlabRestorePreferred: a publish writes exactly the manifest and
// one slab per resource, names each slab in the manifest, and restores
// through them — zero-copy, bit-identical to the heap estimators.
func TestSlabRestorePreferred(t *testing.T) {
	setup(t)
	st := openStore(t, t.TempDir(), Options{})
	man, err := st.Publish(Snapshot{Schema: "tpch",
		Models: map[plan.ResourceKind]*core.Estimator{plan.CPUTime: cpuEst, plan.LogicalIO: ioEst}})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"cpu.model.slab", "io.model.slab"} {
		if e := man.Models[i]; e.File != want || len(e.SHA256) != 64 {
			t.Fatalf("manifest entry %d: %+v, want file %s", i, e, want)
		}
	}
	entries, err := os.ReadDir(st.versionDir(man.Version))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	slices.Sort(names)
	if want := []string{"cpu.model.slab", "io.model.slab", manifestName}; !slices.Equal(names, want) {
		t.Fatalf("snapshot holds %v, want %v", names, want)
	}

	loaded, err := st.LoadVersion(man.Version)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range testPlans {
		for r, est := range map[plan.ResourceKind]*core.Estimator{plan.CPUTime: cpuEst, plan.LogicalIO: ioEst} {
			if got, want := loaded.Models[r].PredictPlan(p), est.PredictPlan(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s slab restore drifted: %v != %v", r, got, want)
			}
		}
	}
}

// TestSlabDegradationFallsBackToPreviousVersion: whatever is wrong with
// the newest snapshot's slab — a flipped byte the MARTS CRC catches, a
// torn write, the format-1 layout earlier builds wrote, a missing file
// — loading that snapshot fails with ErrCorrupt and LoadLatest serves
// the previous intact version, bit-identical to its estimator.
func TestSlabDegradationFallsBackToPreviousVersion(t *testing.T) {
	setup(t)
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, path string)
	}{
		{"flipped-marts-byte", func(t *testing.T, path string) {
			data := readFile(t, path)
			off, n := slabSection(t, data, 2)
			data[off+n/2] ^= 0x40
			writeFile(t, path, data)
		}},
		{"truncated", func(t *testing.T, path string) {
			data := readFile(t, path)
			writeFile(t, path, data[:len(data)/2])
		}},
		{"format-1", func(t *testing.T, path string) {
			// The format field is the first thing the decoder checks
			// after the magic, so a format-1 file is rejected before any
			// of its sections is read.
			data := readFile(t, path)
			binary.LittleEndian.PutUint16(data[4:], 1)
			writeFile(t, path, data)
		}},
		{"missing", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := openStore(t, t.TempDir(), Options{})
			man1 := publishOne(t, st, "tpch", plan.CPUTime, cpuEst)
			man2 := publishOne(t, st, "tpch", plan.CPUTime, cpuEstB)
			tc.damage(t, filepath.Join(st.versionDir(man2.Version), man2.Models[0].File))

			if _, err := st.LoadVersion(man2.Version); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("damaged snapshot load yielded %v, want ErrCorrupt", err)
			}
			loaded, err := st.LoadLatest("tpch")
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Manifest.Version != man1.Version {
				t.Fatalf("fell back to v%d, want the intact v%d", loaded.Manifest.Version, man1.Version)
			}
			for _, p := range testPlans {
				if got, want := loaded.Models[plan.CPUTime].PredictPlan(p), cpuEst.PredictPlan(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("recovered model is not v1's: %v != %v", got, want)
				}
			}
		})
	}
}

// slabSection returns the byte range of the slab section of the given
// kind, read from the slab's section table (24-byte header, then
// 24-byte entries: u32 kind, u32 CRC, u64 offset, u64 length).
func slabSection(t *testing.T, data []byte, kind uint32) (off, n int) {
	t.Helper()
	nSect := int(binary.LittleEndian.Uint32(data[8:]))
	for i := 0; i < nSect; i++ {
		ent := data[24+24*i:]
		if binary.LittleEndian.Uint32(ent) == kind {
			return int(binary.LittleEndian.Uint64(ent[8:])), int(binary.LittleEndian.Uint64(ent[16:]))
		}
	}
	t.Fatalf("slab has no section %d", kind)
	return 0, 0
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGCRemovesSlabFiles: slabs live inside the snapshot directory, so
// retention GC prunes them with the snapshot — no orphaned slab files.
func TestGCRemovesSlabFiles(t *testing.T) {
	setup(t)
	st := openStore(t, t.TempDir(), Options{Retain: 1})
	man1 := publishOne(t, st, "tpch", plan.CPUTime, cpuEst)
	slab1 := filepath.Join(st.versionDir(man1.Version), "cpu.model.slab")
	if _, err := os.Stat(slab1); err != nil {
		t.Fatal(err)
	}
	publishOne(t, st, "tpch", plan.CPUTime, cpuEstB)
	if _, err := st.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(slab1); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("GC left v%d's slab behind: %v", man1.Version, err)
	}
}
