package core

import (
	"fmt"
	"io"
)

// Save writes the estimator in its one serialized form, the slab of
// slab.go. The whole model set for both resources fits in a few
// megabytes, matching the paper's memory budget (§7.3).
func (e *Estimator) Save(w io.Writer) error {
	data, err := e.EncodeSlab()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// LoadEstimator reads an estimator written by Save. The estimator's
// compiled models alias the bytes read, which it keeps alive.
func LoadEstimator(r io.Reader) (*Estimator, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	return LoadEstimatorSlab(data)
}
