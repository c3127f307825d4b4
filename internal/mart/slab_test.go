package mart

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func trainedCompiled(t *testing.T, n int, seed uint64) (*Compiled, [][]float64) {
	t.Helper()
	xs, ys := synth(n, seed, stepFn)
	m, err := Train(xs, ys, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return Compile(m), xs
}

func slabProbes(xs [][]float64, seed uint64) [][]float64 {
	rng := xrand.New(seed)
	probes := append([][]float64{}, xs...)
	for i := 0; i < 400; i++ {
		probes = append(probes, []float64{
			rng.Range(-500, 500), rng.Range(-50, 50), rng.Range(-2, 2),
		})
	}
	probes = append(probes,
		[]float64{0, 0, 0},
		[]float64{1e18, -1e18, math.SmallestNonzeroFloat64},
		[]float64{math.NaN(), 1, 2},
	)
	return probes
}

// TestSlabRoundTripBitIdentical proves the slab codec is lossless: a
// Compiled rebuilt from its slab bytes — via both the zero-copy alias
// and the forced copying decode — predicts bit-identically to the
// original, single-row and batch, on in-range and adversarial probes.
func TestSlabRoundTripBitIdentical(t *testing.T) {
	c, xs := trainedCompiled(t, 1500, 7)
	blob := c.AppendSlab(nil)
	if len(blob) != c.SlabSize() {
		t.Fatalf("encoded %d bytes, SlabSize says %d", len(blob), c.SlabSize())
	}
	probes := slabProbes(xs, 99)

	for _, forceCopy := range []bool{false, true} {
		slabForceCopy = forceCopy
		dec, err := CompiledFromSlab(blob)
		slabForceCopy = false
		if err != nil {
			t.Fatalf("forceCopy=%v: %v", forceCopy, err)
		}
		if dec.NumTrees() != c.NumTrees() {
			t.Fatalf("forceCopy=%v: %d trees, want %d", forceCopy, dec.NumTrees(), c.NumTrees())
		}
		batch := make([]float64, len(probes))
		dec.PredictBatch(probes, batch)
		for i, x := range probes {
			want := c.Predict(x)
			if got := dec.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("forceCopy=%v probe %d: slab Predict %v != %v", forceCopy, i, got, want)
			}
			if math.Float64bits(batch[i]) != math.Float64bits(want) {
				t.Fatalf("forceCopy=%v probe %d: slab PredictBatch %v != %v", forceCopy, i, batch[i], want)
			}
		}
	}
}

// TestSlabRoundTripEncodeStable pins that re-encoding a slab-decoded
// model reproduces the original bytes (the store republishes restored
// models; byte drift would churn every snapshot).
func TestSlabRoundTripEncodeStable(t *testing.T) {
	c, _ := trainedCompiled(t, 600, 11)
	blob := c.AppendSlab(nil)
	dec, err := CompiledFromSlab(blob)
	if err != nil {
		t.Fatal(err)
	}
	again := dec.AppendSlab(nil)
	if string(again) != string(blob) {
		t.Fatal("re-encoded slab differs from original bytes")
	}
}

// TestSlabRejectsCorruption checks the validation surface: every
// mutation that breaks a structural invariant must fail decode with
// ErrSlab, never panic — the batch walk runs without bounds checks and
// relies on these rejections.
func TestSlabRejectsCorruption(t *testing.T) {
	c, _ := trainedCompiled(t, 600, 13)
	blob := c.AppendSlab(nil)

	mutate := func(name string, fn func(b []byte) []byte) {
		t.Helper()
		b := fn(append([]byte(nil), blob...))
		if _, err := CompiledFromSlab(b); err == nil {
			t.Fatalf("%s: decode accepted corrupt slab", name)
		}
	}
	mutate("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	mutate("truncated", func(b []byte) []byte { return b[:len(b)-8] })
	mutate("extended", func(b []byte) []byte { return append(b, 0) })
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("header only", func(b []byte) []byte { return b[:slabHeaderSize] })
	mutate("tree count lies", func(b []byte) []byte { b[4]++; return b })
	mutate("node count lies", func(b []byte) []byte { b[8]++; return b })
	mutate("root out of range", func(b []byte) []byte {
		b[slabHeaderSize] = 0xFF
		b[slabHeaderSize+1] = 0xFF
		b[slabHeaderSize+2] = 0xFF
		b[slabHeaderSize+3] = 0x7F
		return b
	})
	mutate("depth negative", func(b []byte) []byte {
		off := slabHeaderSize + 4*len(c.roots)
		b[off+3] = 0x80
		return b
	})
	mutate("feature out of range", func(b []byte) []byte {
		off := slabHeaderSize + 8*len(c.roots)
		b[off] = 0xFF
		b[off+1] = 0xFF
		return b
	})
}
