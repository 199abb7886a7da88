package surrogate

import (
	"bytes"
	"testing"
)

// maxFuzzWidth caps the probe width FuzzUnmarshal allocates. A mutated
// archive can name split feature 2³¹−1, and an input that wide does not fit
// in memory; such a model is only checked for its re-marshal.
const maxFuzzWidth = 1 << 12

// inputWidth is the narrowest input m can be asked about: one past its
// largest split feature, or the GP's row width.
func inputWidth(m Model) int {
	var trees []*Tree
	switch v := m.(type) {
	case *Forest:
		trees = v.trees
	case *GBRT:
		trees = v.stages
	case *GP:
		return len(v.X[0])
	}
	w := 0
	for _, t := range trees {
		for _, nd := range t.nodes {
			w = max(w, nd.feature+1)
		}
	}
	return w
}

// FuzzUnmarshal: Unmarshal either rejects the bytes, or returns a model that
// predicts without panicking or hanging on an input of its own width, in
// both the pointwise and the batch path, and whose archive survives a second
// round trip byte for byte. The seed corpus in testdata/fuzz/FuzzUnmarshal
// holds a fitted archive of each family and the malformed archives that
// once hung or panicked (an ET split with "r":0, a GBRT split with "r" past
// the end, a GP with ragged rows).
func FuzzUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err != nil {
			return
		}
		if w := inputWidth(m); w <= maxFuzzWidth {
			probes := make([][]float64, 3)
			for i, v := range []float64{0, 0.5, 1} {
				probes[i] = make([]float64, w)
				for j := range probes[i] {
					probes[i][j] = v
				}
			}
			for _, x := range probes {
				m.Predict(x)
				m.PredictWithStd(x)
			}
			m.PredictBatch(probes)
		}
		out, err := Marshal(m)
		if err != nil {
			t.Fatalf("accepted archive does not marshal: %v", err)
		}
		back, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-marshaled archive rejected: %v\n%s", err, out)
		}
		again, err := Marshal(back)
		if err != nil {
			t.Fatalf("second marshal: %v", err)
		}
		if !bytes.Equal(again, out) {
			t.Fatalf("archive changed on a second round trip:\n%s\n%s", out, again)
		}
	})
}
